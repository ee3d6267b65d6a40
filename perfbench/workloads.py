"""The benchmark's workloads: which qfilab command lines each one runs.

A workload is a list of commands. One sample runs each command once, in
order, each in its own fresh process; curve_sweep's sample is a fig3a
call followed by a fig3b call. Only estimate_mzi consumes the workload
seed, as the CLI's --seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Why each workload exists; BENCHMARK.json carries a one-line form of these.
WHY = {
    "curve_sweep": (
        "fig3a and fig3b at 20000 points with the provenance sidecar: the "
        "time is in curves (brentq on zeta) and in the cli layer (thread "
        "pool, CSV, JSON). No Fock-space work, so fock and fisher must not "
        "move here."
    ),
    "qfi_noon": (
        "qfi on zeta_noon at cutoff K=300, the paper's headline state: about "
        "80 % of the time builds the dense splitter cache, which grows like "
        "K^3. K=300 and not the CLI default K=1000, because K=1000 needs "
        "about 5 GiB of cache on a 7.8 GiB host."
    ),
    "estimate_mzi": (
        "seeded estimate runs of a dual-Fock family through the MZI pipeline: "
        "general (not two-branch) input, small cutoff, splitters reused warm "
        "over many likelihood grids; the MLE dominates."
    ),
}

CURVE_RANGES = {"fig3a": (1.01, 5.0, 1), "fig3b": (2.02, 5.0, 2)}


@dataclass(frozen=True)
class Curve:
    """`qfilab fig3a|fig3b --points P --out F` over the default range."""

    figure: str
    points: int

    kind = "curve"
    expected_exit = 0

    @property
    def out_name(self) -> str:
        return f"{self.figure}.csv"

    @property
    def x_range(self) -> tuple[float, float]:
        return CURVE_RANGES[self.figure][:2]

    @property
    def scale(self) -> int:
        """Photons per weight index: 1 for fig3a's family, 2 for fig3b's."""
        return CURVE_RANGES[self.figure][2]

    def argv(self, out: str) -> list[str]:
        return [self.figure, "--points", str(self.points), "--out", out]


@dataclass(frozen=True)
class Qfi:
    """`qfilab qfi catalog:zeta_noon:3:K` on the MMZI pipeline; exit 3,
    because the family's QFI diverges with K."""

    cutoff: int

    kind = "qfi"
    expected_exit = 3
    out_name = "qfi.json"

    @property
    def spec(self) -> str:
        return f"catalog:zeta_noon:3:{self.cutoff}"

    def argv(self, out: str) -> list[str]:
        return ["qfi", self.spec, "--out", out]


@dataclass(frozen=True)
class Estimate:
    """`qfilab estimate catalog:zeta_dual_fock:3:K --pipeline MZI ...`."""

    cutoff: int
    trials: int
    reps: int
    seed: int
    phi_true: float = 0.3

    kind = "estimate"
    expected_exit = 0
    out_name = "estimate.jsonl"

    @property
    def spec(self) -> str:
        return f"catalog:zeta_dual_fock:3:{self.cutoff}"

    def argv(self, out: str) -> list[str]:
        return [
            "estimate", self.spec, "--pipeline", "MZI",
            "--phi-true", repr(self.phi_true), "--trials", str(self.trials),
            "--reps", str(self.reps), "--seed", str(self.seed), "--out", out,
        ]


def commands(workload: str, seed: int) -> list:
    """The commands of one sample of `workload`."""
    if workload == "curve_sweep":
        return [Curve("fig3a", 20_000), Curve("fig3b", 20_000)]
    if workload == "qfi_noon":
        return [Qfi(cutoff=300)]
    if workload == "estimate_mzi":
        return [Estimate(cutoff=30, trials=10_000, reps=10, seed=seed)]
    raise ValueError(f"unknown workload {workload!r}; use one of {sorted(WHY)}")


# Per-layer metrics, named <module>.<metric>. The spans and counts come
# from traced.py; the cli.* and trace.* ones from the CLI runs beside it.
SPANS = (
    "catalog.state_s",
    "fock.splitter_s",
    "fisher.scan_s",
    "fisher.qfi_s",
    "fisher.fi_s",
    "estimation.window_s",
    "estimation.sample_s",
    "estimation.mle_s",
    "curves.point_s",
    "curves.provenance_s",
)
COUNTS = (
    "catalog.entries",
    "fock.splitter_bytes",
    "fock.sectors",
    "fock.max_dim",
    "fisher.scan_evals",
    "fisher.scan_amp_bytes",
    "estimation.outcomes",
    "curves.points",
    "curves.divergent_rows",
)
CLI_METRICS = ("cli.main_s", "cli.self_s", "cli.output_bytes")
TRACE_METRICS = ("trace.coverage", "trace.overhead_s")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric == "trace.coverage":
        return "ratio"
    return "count"
