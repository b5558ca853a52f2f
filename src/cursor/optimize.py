"""CMA-ES search over a reduced latent space, and end-to-end target recovery.

The optimizer is a standard (mu/mu_w, lambda) evolution strategy with
cumulative step-size adaptation and rank-1 plus rank-mu covariance updates.
It maximizes the objective; internally candidates are ranked by negated
score.  Box constraints are handled by clamping sampled candidates to the
bounds before evaluation; the clamped points also drive the distribution
update, so the search mass stays inside the box.

The search itself, _maximize, scores one generation per objective call: the
objective maps the generation's candidates, one per row, to their scores,
and the optional trace distance_fn maps them to their distances from a known
target.  cmaes_maximize is the scalar wrapper over it for both.

recover_target wires the optimizer to the scoring machinery.  The search runs
in the k PCA coordinates of the latent space, where a candidate a stands for
the full latent point h = mu + W^T a.  Its distances to the stimuli are
computed in those k coordinates, plus each stimulus's fixed squared distance
from the PCA subspace, and HypothesisScorer.score_distances scores a whole
generation in one call against PCA-reduced responses.  The distances equal
the full Dz-coordinate ones within rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import StimulusResponseDataset
from .latent import LatentPoint
from .pca import PcaModel, pca_inverse, pca_transform
from .scoring import HypothesisScorer, ScoreConfig, pairwise_distances
from ._util import derive_rng

__all__ = [
    "CmaConfig",
    "EvalRecord",
    "GenRecord",
    "OptimizationTrace",
    "cmaes_maximize",
    "recover_target",
    "trace_summary",
    "trace_to_jsonl",
]

SIGMA_STOP = 1e-10


@dataclass(frozen=True)
class CmaConfig:
    """Search-space geometry and budget for one optimizer run.

    bounds are per-coordinate; scalars broadcast.  The search starts at the
    box center.  population_size defaults to 4 + floor(3 ln dim) and sigma0
    to one third of the mean bound half-width.  max_evaluations counts
    objective calls.
    """

    dim: int
    bounds_lo: float | np.ndarray = -15.0
    bounds_hi: float | np.ndarray = 15.0
    population_size: int | None = None
    sigma0: float | None = None
    max_evaluations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        lo = np.broadcast_to(np.asarray(self.bounds_lo, dtype=np.float64), (self.dim,)).copy()
        hi = np.broadcast_to(np.asarray(self.bounds_hi, dtype=np.float64), (self.dim,)).copy()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError("bounds_lo must be strictly below bounds_hi")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "bounds_lo", lo)
        object.__setattr__(self, "bounds_hi", hi)
        if self.population_size is not None and self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.sigma0 is not None and not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")

    @property
    def effective_population_size(self) -> int:
        if self.population_size is not None:
            return self.population_size
        return 4 + int(math.floor(3.0 * math.log(self.dim)))

    @property
    def effective_sigma0(self) -> float:
        if self.sigma0 is not None:
            return self.sigma0
        return float(np.mean((self.bounds_hi - self.bounds_lo) / 2.0)) / 3.0


@dataclass(frozen=True)
class EvalRecord:
    index: int
    point: np.ndarray  # clamped candidate, reduced coordinates
    score: float
    distance: float | None  # candidate-to-target distance when truth is known
    nonfinite: bool


@dataclass(frozen=True)
class GenRecord:
    index: int
    sigma: float
    min_eig: float
    max_eig: float


@dataclass(eq=False)
class OptimizationTrace:
    evaluations: list[EvalRecord] = field(default_factory=list)
    generations: list[GenRecord] = field(default_factory=list)
    best_point: np.ndarray | None = None
    best_score: float = -np.inf
    best_distance: float | None = None  # the best point's distance to the target
    seeds: dict = field(default_factory=dict)

    def record(self, point: np.ndarray, score: float, distance: float | None):
        finite = math.isfinite(score)
        ev = EvalRecord(
            index=len(self.evaluations),
            point=np.array(point),
            score=float(score),
            distance=None if distance is None else float(distance),
            nonfinite=not finite,
        )
        self.evaluations.append(ev)
        if finite and score > self.best_score:
            self.best_score = ev.score
            self.best_point = ev.point
            self.best_distance = ev.distance


def trace_to_jsonl(trace: OptimizationTrace) -> str:
    lines = []
    for ev in trace.evaluations:
        lines.append(
            json.dumps(
                {
                    "index": ev.index,
                    "point": [float(v) for v in ev.point],
                    "score": ev.score,
                    "distance": ev.distance,
                    "nonfinite": ev.nonfinite,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def trace_summary(trace: OptimizationTrace) -> dict:
    return {
        "evaluations": len(trace.evaluations),
        "generations": len(trace.generations),
        "best_score": None if trace.best_point is None else trace.best_score,
        "best_point": None if trace.best_point is None else [float(v) for v in trace.best_point],
        "best_distance": trace.best_distance,
        "final_sigma": trace.generations[-1].sigma if trace.generations else None,
        "seeds": dict(trace.seeds),
    }


def cmaes_maximize(objective, cfg: CmaConfig, distance_fn=None) -> OptimizationTrace:
    """Run CMA-ES and return the full trace.

    objective maps a length-dim vector to a scalar score (higher is better);
    nonfinite returns are flagged and treated as worst-in-generation rather
    than aborting the run.  distance_fn, when given, is evaluated on every
    candidate for the trace only and never influences the search.  This is a
    scalar wrapper over the generation-batched _maximize: it scores each
    generation's candidates one objective call at a time.
    """
    batch_distance = None if distance_fn is None else (lambda ys: [distance_fn(y) for y in ys])
    return _maximize(lambda ys: [objective(y) for y in ys], cfg, batch_distance)


def _maximize(objective, cfg: CmaConfig, distance_fn=None) -> OptimizationTrace:
    """cmaes_maximize with an objective that scores a whole generation.

    objective maps a (k, dim) array of candidates, one per row, to k scores,
    and distance_fn, when given, maps the same array to the k candidates'
    distances for the trace.
    """
    n = cfg.dim
    lam = cfg.effective_population_size
    mu = lam // 2
    raw_w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw_w / raw_w.sum()
    mueff = 1.0 / np.sum(weights**2)

    cs = (mueff + 2.0) / (n + mueff + 5.0)
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    rng = derive_rng(cfg.seed, "cma-es")
    mean = (cfg.bounds_lo + cfg.bounds_hi) / 2.0
    sigma = cfg.effective_sigma0
    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)

    trace = OptimizationTrace(
        seeds={
            "seed": cfg.seed,
            "population_size": lam,
            "sigma0": sigma,
            "max_evaluations": cfg.max_evaluations,
        }
    )

    gen = 0
    while len(trace.evaluations) < cfg.max_evaluations:
        if sigma < SIGMA_STOP:
            break

        # eigendecomposition once per generation; also the SPD health check
        cov = (cov + cov.T) / 2.0
        eigvals, basis = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        scales = np.sqrt(eigvals)
        trace.generations.append(
            GenRecord(index=gen, sigma=float(sigma), min_eig=float(eigvals[0]), max_eig=float(eigvals[-1]))
        )

        room = min(lam, cfg.max_evaluations - len(trace.evaluations))
        z = rng.standard_normal((lam, n))
        steps = (z * scales) @ basis.T
        cands = np.clip(mean + sigma * steps, cfg.bounds_lo, cfg.bounds_hi)

        losses = np.full(lam, np.inf)
        scores = objective(cands[:room])
        dists = [None] * room
        if distance_fn is not None:
            dists = [float(v) for v in distance_fn(cands[:room])]
        for i in range(room):
            score = float(scores[i])
            trace.record(cands[i], score, dists[i])
            if math.isfinite(score):
                losses[i] = -score

        if room < lam:
            break  # budget exhausted mid-generation: no update from a partial ranking
        gen += 1

        order = np.argsort(losses, kind="stable")[:mu]
        y_sel = (cands[order] - mean) / sigma
        y_w = weights @ y_sel

        inv_sqrt = (basis / scales) @ basis.T
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * (inv_sqrt @ y_w)
        hsig = float(
            np.linalg.norm(ps) / math.sqrt(1.0 - (1.0 - cs) ** (2 * gen)) / chi_n
            < 1.4 + 2.0 / (n + 1.0)
        )
        pc = (1.0 - cc) * pc + hsig * math.sqrt(cc * (2.0 - cc) * mueff) * y_w

        c1a = c1 * (1.0 - (1.0 - hsig) * cc * (2.0 - cc))
        cov = (
            (1.0 - c1a - cmu) * cov
            + c1 * np.outer(pc, pc)
            + cmu * (y_sel.T * weights) @ y_sel
        )
        mean = mean + sigma * y_w
        sigma *= math.exp((cs / damps) * (np.linalg.norm(ps) / chi_n - 1.0))

    return trace


def _lifted_distances(pca_z: PcaModel, stimuli: np.ndarray):
    """A function from B x k candidates a to their B x N distances to stimuli.

    A candidate stands for its lift h = mu + W^T a.  Each stimulus z_i splits
    into its PCA coordinates p_i and a residual r_i orthogonal to the rows of
    W, so ||z_i - h||^2 = ||r_i||^2 + ||p_i - a||^2: a sum over k coordinates
    rather than Dz.  ||r_i||^2 comes from r_i itself, which does not cancel
    near a stimulus as a difference of squared norms would.
    """
    proj = pca_transform(pca_z, stimuli)
    resid = stimuli - pca_inverse(pca_z, proj)
    resid_sq = np.einsum("ij,ij->i", resid, resid)
    proj = np.asfortranarray(proj)  # pairwise_distances reads it a column at a time
    return lambda ys: pairwise_distances(proj, ys, base=resid_sq)


def recover_target(
    ds: StimulusResponseDataset,
    cfg: ScoreConfig,
    cma: CmaConfig,
    pca_e: PcaModel,
    pca_z: PcaModel,
) -> tuple[LatentPoint, OptimizationTrace]:
    """Search the reduced latent space for the point that scores highest.

    Responses are reduced through pca_e once up front.  A candidate's
    distances to the stimuli, those of its lift through pca_z, are summed
    over pca_z's k coordinates (see _lifted_distances).  Returns the
    recovered point (full coordinates) and the optimizer trace;
    when the dataset carries ground truth, each trace entry also logs the
    candidate's true distance to the hidden target.
    """
    if pca_e.input_dim != ds.response_dim:
        raise ValueError("pca_e dimension does not match dataset responses")
    if pca_z.input_dim != ds.stimulus_dim:
        raise ValueError("pca_z dimension does not match dataset stimuli")
    if cma.dim != pca_z.k:
        raise ValueError("cma.dim must equal pca_z.k")

    reduced = StimulusResponseDataset(
        stimuli=ds.stimuli,
        responses=pca_transform(pca_e, ds.responses),
        truth=ds.truth,
        provenance={**ds.provenance, "responses_reduced_to": pca_e.k},
    )
    scorer = HypothesisScorer(reduced, cfg)

    distances = _lifted_distances(pca_z, ds.stimuli)

    def objective(ys: np.ndarray) -> np.ndarray:
        # A candidate whose distances overflow lies outside S(h)'s domain: it
        # scores NaN, which _maximize records as a nonfinite evaluation.
        d = distances(ys)
        finite = np.isfinite(d.max(axis=1))
        scores = np.full(len(ys), np.nan)
        if finite.any():
            scores[finite] = [rep.score for rep in scorer.score_distances(d[finite])]
        return scores

    distance_fn = None
    if ds.truth is not None:
        target = ds.truth.target.coords

        def distance_fn(ys: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # logged as inf for a candidate that overflows
                return np.linalg.norm(pca_inverse(pca_z, ys) - target, axis=1)

    trace = _maximize(objective, cma, distance_fn)
    if trace.best_point is None:
        raise RuntimeError("optimization produced no finite score")
    return LatentPoint(pca_inverse(pca_z, trace.best_point)), trace
