"""Job cost estimation: packing execution backends largest-first.

Submission order never changes a result (``execute_job`` is
deterministic), but it does change how well a pool of workers is
utilized: with figure-order submission a long job picked up last leaves
every other worker idle while it finishes.  Classic longest-processing-
time packing — submit the most expensive jobs first — bounds that tail,
so both the process-pool and the distributed backends order their
submissions through :func:`order_by_cost`.

The a-priori cost of a job is :meth:`ExperimentJob.cost_units`
(simulated seconds × instance count).  Units are only comparable within
one job kind — ``accuracy`` jobs spend their time training models, not
simulating — so :class:`CostModel` carries a wall-seconds-per-unit rate
per kind, calibrated from the ``runtime_s`` / ``cost_units`` stamps the
executor writes into every result-store row.  With no calibration data the
rates default to 1.0, which still orders correctly within a kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # import cycle: executor imports this module
    from repro.experiments.jobs import ExperimentJob
    from repro.experiments.store import ResultStore

__all__ = ["CostCalibration", "CostModel", "order_by_cost"]


@dataclass(frozen=True)
class CostModel:
    """Wall-clock estimates for experiment jobs.

    ``rates`` maps a job kind to calibrated wall seconds per cost unit;
    kinds without a rate fall back to ``default_rate`` — 1.0 (raw
    units) on a fresh model, the blended rate across every calibrated
    kind on a fitted one.  Fleet populations sample kinds a store may
    have never executed, and a blended fallback keeps those jobs
    comparable to calibrated ones instead of wildly mis-packed.
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    default_rate: float = 1.0

    def estimate(self, job: "ExperimentJob") -> float:
        """Estimated wall seconds (or raw units, uncalibrated) for ``job``."""
        return self.estimate_units(job.kind, job.cost_units())

    def estimate_units(self, kind: str, units: float) -> float:
        """:meth:`estimate` from a job's provenance pair alone.

        The queue server orders claims largest-estimated-cost first
        across *all* submitters, and it knows each pending job only as
        ``(kind, cost_units)`` stamps — the pickled job itself never
        needs to be loaded to place it in the packing order.
        """
        return units * self.rates.get(kind, self.default_rate)

    @classmethod
    def calibrated(cls, cache: "ResultStore") -> "CostModel":
        """A model whose per-kind rates are fit from stored runtimes.

        Every executed job's store row records how long it actually
        took (``runtime_s``) and its a-priori cost (``cost_units``); the
        rate for a kind is total runtime over total units, so large jobs
        dominate the fit — exactly the jobs packing must get right.
        Kinds with no usable samples keep the 1.0 default.
        """
        return CostCalibration.from_cache(cache).model()


@dataclass
class CostCalibration:
    """Mutable per-kind runtime/unit totals that feed a :class:`CostModel`.

    The executor seeds one from the result store **once** per suite (a
    single SQL pass over the provenance columns — no result payloads are
    unpickled) and then feeds it each executed job's observed runtime in
    memory.
    """

    unit_totals: dict = field(default_factory=dict)
    runtime_totals: dict = field(default_factory=dict)

    def observe(self, kind: str, units: float,
                runtime_s: float | None) -> None:
        if not kind or not runtime_s or not units:
            return  # pre-runtime-stamp entry (or a zero-cost fluke)
        self.unit_totals[kind] = self.unit_totals.get(kind, 0.0) + units
        self.runtime_totals[kind] = (self.runtime_totals.get(kind, 0.0)
                                     + runtime_s)

    @classmethod
    def from_cache(cls, cache: "ResultStore") -> "CostCalibration":
        """Seed a calibration from a result store's three calibration
        columns, straight from SQL."""
        calibration = cls()
        for kind, units, runtime_s in cache.calibration_rows():
            calibration.observe(kind, units, runtime_s)
        return calibration

    def model(self) -> CostModel:
        rates = {
            kind: self.runtime_totals[kind] / self.unit_totals[kind]
            for kind in self.unit_totals if self.unit_totals[kind] > 0}
        # Kinds never executed against this store estimate at the
        # blended rate over every observation, not the raw-units 1.0.
        all_units = sum(self.unit_totals[kind] for kind in rates)
        all_runtime = sum(self.runtime_totals[kind] for kind in rates)
        default = all_runtime / all_units if all_units > 0 else 1.0
        return CostModel(rates=rates, default_rate=default)


def order_by_cost(jobs: Sequence["ExperimentJob"],
                  model: CostModel | None = None) -> list["ExperimentJob"]:
    """``jobs`` reordered largest-estimated-cost first.

    Deterministic: ties break on the job's content hash, so every
    process (and every backend) derives the same submission order from
    the same job set.
    """
    model = model or CostModel()
    return sorted(jobs, key=lambda job: (-model.estimate(job), job.key()))
