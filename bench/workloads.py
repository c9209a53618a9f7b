"""The three benchmark workloads: inputs from the seed, one call, its check.

Each workload is a closed loop with one caller: the harness makes one call,
waits for it to return, checks its outputs, then makes the next.  Building a
workload object is the benchmark's set-up (config plus input synthesis); a
call is the timed unit.  Only public names of the package are used, and every
package function is looked up on its module at call time, so the tracer's
patches take effect.

Calls last one to four seconds on a 2-core machine, so that a run makes
enough of them for a median.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

from belieffit import cli, training
from belieffit import config as cfg

ASSEMBLY_TRIALS = 5  # per call
ASSEMBLY_MIN_CALLS = 6  # so the criterion-7 ordering is checked on >= 30 trials
# the CLI's default assembly variants, in the order the paper ranks them
ASSEMBLY_VARIANTS = ("full_approach", "failure_plus_position", "failure_only")

FIT_RECORDS = 10_000
FIT_EPOCHS = 100  # about 60 reach the accuracy check; 100 leave a margin
FIT_LR = 0.05
FIT_INIT = (4e-4, 0.6, 0.4)  # isotropic covariance scale, tpr, fpr
COV_GAP_MAX = 0.10
RATE_TOL = 0.02

DATASET_RECORDS = 500


def _seed_for(seed: int, workload_id: int, call: int) -> int:
    """Input seed of call `call`, derived from the benchmark seed."""
    return int(np.random.default_rng([seed, workload_id, call]).integers(0, 2**31 - 1))


class Workload:
    name = ""
    item = ""
    items_per_call = 0
    min_calls = 3
    reference = "loop"  # the reference kernel whose work resembles a call's
    outputs: tuple[Path, ...] = ()

    def call(self, k: int):
        """Run call k and return what `check` needs."""
        raise NotImplementedError

    def check(self, k: int, result) -> list[str]:
        """Problems with call k's outputs; empty when they are correct."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Problems visible only across all calls of the run."""
        return []

    def probe(self) -> None:
        """Extra layer calls made once in a traced run."""


class Assembly(Workload):
    """`belieffit experiment assembly` through `cli.main` with the CLI's
    defaults; call k uses its own CLI seed, so a run covers many worlds."""

    name = "assembly"
    item = "trials"  # (variant, trial) tasks
    items_per_call = ASSEMBLY_TRIALS * len(ASSEMBLY_VARIANTS)
    min_calls = ASSEMBLY_MIN_CALLS

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.n_holes = cfg.env_from(cfg.load_config(None)).n_holes
        self.outputs = (out_dir / "metrics.csv", out_dir / "steps.csv")
        self.totals: dict[int, dict] = {}  # call index -> per-variant sums

    def call(self, k: int):
        argv = [
            "experiment", "assembly",
            "--trials", str(ASSEMBLY_TRIALS),
            "--seed", str(_seed_for(self.seed, 1, k)),
            "--out", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejected an argument
                return exc.code

    def check(self, k: int, rc) -> list[str]:
        """The CLI returned 0.  Its per-variant totals are kept for the
        study-level check in `finish`."""
        if rc != 0:
            return [f"cli exited {rc}"]
        sums = {}
        with open(self.outputs[0], newline="") as fh:
            for row in csv.DictReader(fh):
                if row["metric"] == "cum_attempts_mean" and int(row["step"]) == self.n_holes:
                    sums[("attempts", row["variant"])] = float(row["value"]) * ASSEMBLY_TRIALS
                elif row["metric"] == "intervention_rate":
                    sums[("interventions", row["variant"])] = (
                        float(row["value"]) * ASSEMBLY_TRIALS * self.n_holes
                    )
        self.totals[k] = sums
        return []

    def finish(self) -> list[str]:
        """The paper's ordering (criterion 7) on every distinct trial of the
        run: mean cumulative attempts full < failure+position < failure-only,
        and failure-only has no fewer interventions than full."""
        if not self.totals:
            return ["no assembly call returned results"]

        def total(kind, variant):
            return sum(t.get((kind, variant), math.nan) for t in self.totals.values())

        trials = ASSEMBLY_TRIALS * len(self.totals)
        fa, fpp, fo = (total("attempts", v) / trials for v in ASSEMBLY_VARIANTS)
        problems = []
        if not fa < fpp < fo:
            problems.append(f"mean cumulative attempts not ordered: {fa} < {fpp} < {fo}")
        if not total("interventions", "failure_only") >= total("interventions", "full_approach"):
            problems.append("failure_only has fewer interventions than full_approach")
        return problems


class Fit10k(Workload):
    """`training.fit_parameters` on 10 000 records that follow the model,
    synthesised by the recipe of acceptance criterion 8."""

    name = "fit_10k"
    item = "records"  # records fitted to the stated accuracy
    items_per_call = FIT_RECORDS
    reference = "batch"

    def __init__(self, seed: int, out_dir: Path):
        doc = cfg.load_config(None)
        env = cfg.env_from(doc)
        sensors = cfg.sensors_from(doc)
        self.alpha = env.alpha
        self.true_cov = sensors.position.cov
        self.tpr, self.fpr = sensors.match.tpr, sensors.match.fpr
        self.init = training.LearnedParams.from_values(
            FIT_INIT[0] * np.eye(2), FIT_INIT[1], FIT_INIT[2]
        )
        self.records = self._synthesise(np.random.default_rng([seed, 2]), env)

    def _synthesise(self, rng, env) -> list:
        chol = np.linalg.cholesky(self.true_cov)
        types = range(1, env.n_types + 1)
        sigma0 = env.sigma_init * np.eye(2)
        records = []
        for i in range(FIT_RECORDS):
            matched = i % 2 == 0
            hole_type = int(rng.integers(1, env.n_types + 1))
            if matched:
                peg_type = hole_type
            else:
                others = [t for t in types if t != hole_type]
                peg_type = int(others[rng.integers(0, len(others))])
            p = rng.uniform(-0.1, 0.1, 2)
            mu0 = p - math.sqrt(env.sigma_init) * rng.standard_normal(2)
            obs = p + chol @ rng.standard_normal(2)
            o_match = bool(rng.random() < (self.tpr if matched else self.fpr))
            beta = bool(matched and rng.random() < env.alpha)
            # prior mirrors how classes were drawn: half on the peg's class
            xi0 = np.full(env.n_types, 0.5 / (env.n_types - 1))
            xi0[peg_type - 1] = 0.5
            records.append(
                training.InteractionRecord(
                    peg_type=peg_type, hole_type=hole_type, position=p, mu0=mu0,
                    sigma0=sigma0, xi0=xi0, obs=obs, o_match=o_match, beta=beta,
                )
            )
        return records

    def call(self, k: int):
        return training.fit_parameters(
            self.records, init=self.init, lr=FIT_LR, epochs=FIT_EPOCHS,
            alpha=self.alpha, history_out=[],
        )

    def check(self, k: int, params) -> list[str]:
        gap = float(
            np.linalg.norm(params.position_cov - self.true_cov)
            / np.linalg.norm(self.true_cov)
        )
        problems = []
        if not gap <= COV_GAP_MAX:
            problems.append(f"covariance gap {gap} > {COV_GAP_MAX}")
        if not abs(params.tpr - self.tpr) <= RATE_TOL:
            problems.append(f"tpr {params.tpr} off {self.tpr} by more than {RATE_TOL}")
        if not abs(params.fpr - self.fpr) <= RATE_TOL:
            problems.append(f"fpr {params.fpr} off {self.fpr} by more than {RATE_TOL}")
        return problems

    def probe(self) -> None:
        """The loss and its gradient at 10k records, called directly
        because `fit_parameters` uses neither public name."""
        for _ in range(3):
            training.grad_nll(self.init, self.records, self.alpha)
            training.batch_nll(self.init, self.records, self.alpha)


class DatasetGen(Workload):
    """`training.generate_dataset`, then `save_dataset` and `load_dataset`
    on the result; call k uses its own generator seed."""

    name = "dataset_gen"
    item = "records"  # records generated, saved and loaded
    items_per_call = DATASET_RECORDS

    def __init__(self, seed: int, out_dir: Path):
        doc = cfg.load_config(None)
        self.seed = seed
        self.env = cfg.env_from(doc)
        self.spiral = cfg.spiral_from(doc)
        self.sensors = cfg.sensors_from(doc)
        self.path = out_dir / "dataset.csv"
        self.outputs = (self.path,)

    def call(self, k: int):
        rng = np.random.default_rng(_seed_for(self.seed, 3, k))
        records = training.generate_dataset(
            self.env, self.sensors, DATASET_RECORDS, rng, self.spiral
        )
        training.save_dataset(records, self.path)
        return records, training.load_dataset(self.path, self.env)

    def check(self, k: int, result) -> list[str]:
        records, loaded = result
        problems = []
        if len(loaded) != len(records) or len(records) != DATASET_RECORDS:
            problems.append(f"{len(records)} generated, {len(loaded)} loaded")
        for i, (a, b) in enumerate(zip(records, loaded)):
            same = (
                a.peg_type == b.peg_type and a.hole_type == b.hole_type
                and a.o_match == b.o_match and a.beta == b.beta
                and all(np.array_equal(getattr(a, f), getattr(b, f))
                        for f in ("position", "mu0", "obs"))
            )
            if not same:
                problems.append(f"record {i} does not round-trip")
                break
        matched = sum(r.peg_type == r.hole_type for r in records)
        if matched != math.ceil(DATASET_RECORDS / 2):
            problems.append(f"{matched} matched records, expected ceil(n/2)")
        if any(r.beta and r.peg_type != r.hole_type for r in records):
            problems.append("a mismatched record succeeded")
        return problems


WORKLOADS = {w.name: w for w in (Assembly, Fit10k, DatasetGen)}
