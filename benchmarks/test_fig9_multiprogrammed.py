"""Figure 9: weighted speedup and instruction throughput for the
multi-programmed Case 1-3 workloads.

Case 1 co-schedules four write-intensive applications (the worst case
for the naive SRAM->STT-RAM swap); Case 2 mixes bursty write-intensive
with read-intensive applications; Case 3 aggregates random mixes across
the design space.
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme
from repro.sim.metrics import weighted_speedup
from repro.workloads.mixes import CASE1_APPS, CASE2_APPS

from common import once, point, run

SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB, Scheme.STTRAM_4TSB,
           Scheme.STTRAM_4TSB_WB)

#: (mix, workload seed) per case.  Case 3 stands for the random mixes
#: with one of them: the second of ``case3_mixes(config, n_mixes=2,
#: apps_per_mix=4)``, whose applications are drawn with seed 7 and
#: which runs at seed 7 + 1.
CASES = {
    "case1": ("+".join(CASE1_APPS), 1),
    "case2": ("+".join(CASE2_APPS), 1),
    "case3": ("sjbb+sclust+namd+canneal", 8),
}


def _run_all():
    points = {}
    for name, (apps, seed) in CASES.items():
        for scheme in SCHEMES:
            points[(name, scheme)] = point(scheme, apps, seed=seed)
            for app in apps.split("+"):
                points[(app, scheme)] = point(scheme, app)
    data = run(points)
    cases = {}
    for name in CASES:
        cases[name] = {}
        for scheme in SCHEMES:
            mixed = data[(name, scheme)]
            shared = mixed["ipc_by_app"]
            alone = {app: data[(app, scheme)]["ipc_by_app"][app]
                     for app in shared}
            cases[name][scheme] = {
                "ws": weighted_speedup(shared, alone),
                "it": mixed["instruction_throughput"],
            }
    return cases


def test_fig9_weighted_speedup_and_throughput(benchmark):
    cases = once(benchmark, _run_all)

    print()
    for name, by_scheme in cases.items():
        base_ws = by_scheme[Scheme.SRAM_64TSB]["ws"]
        base_it = by_scheme[Scheme.SRAM_64TSB]["it"]
        rows = [
            [s.value,
             round(m["ws"] / base_ws, 3),
             round(m["it"] / base_it, 3)]
            for s, m in by_scheme.items()
        ]
        print(format_table(
            ["scheme", "WS (norm)", "IT (norm)"], rows,
            title=f"Figure 9 ({name}): normalised to SRAM-64TSB"))
        print()

    # Case 1: co-scheduled write-intensive applications show no gain
    # from the naive swap (paper: WS can degrade by ~9%).
    case1_metrics = cases["case1"]
    assert case1_metrics[Scheme.STTRAM_64TSB]["ws"] \
        <= 1.05 * case1_metrics[Scheme.SRAM_64TSB]["ws"]

    # The WB scheme recovers throughput relative to the restricted
    # STT-RAM baseline in the write-heavy cases.
    for name in ("case1", "case2"):
        by_scheme = cases[name]
        assert by_scheme[Scheme.STTRAM_4TSB_WB]["it"] \
            > 0.95 * by_scheme[Scheme.STTRAM_4TSB]["it"], name

    # Every configuration makes progress.
    for name, by_scheme in cases.items():
        for scheme, metrics in by_scheme.items():
            assert metrics["it"] > 0, (name, scheme)
            assert metrics["ws"] > 0, (name, scheme)
