"""Learned tuner prior: ridge regression from features to solve time.

The cost-model prior (:mod:`repro.tuner.predict`) prices every candidate
by running one machine-model simulation per candidate per instance.
That is cheap next to racing, but it is still the dominant cost of a
warm fleet re-tune — and the information it recomputes is exactly what
accumulated tuning observations already contain.  This module learns
the mapping once and answers from then on with **one inference per
candidate** instead of one simulation:

* every cold ``repro tune`` run appends ``(features, scheduler,
  seconds)`` observations to the **training data-plane** — the
  fleet-wide :class:`~repro.store.ObservationStore`;
* :meth:`LearnedTunerModel.fit` trains one ridge-regression model per
  scheduler candidate on those observations (any iterable of record
  dicts — a store iterates directly) — inputs are the
  :class:`~repro.tuner.features.MatrixFeatures` vector (which includes
  the core count), targets are **log-transformed** per-solve and
  scheduling seconds;
* each model estimates its own predictive uncertainty from
  **leave-one-out** residuals (the closed-form hat-matrix identity, no
  refits), so a prediction comes with a standard deviation in log space;
* the :class:`~repro.tuner.predict.LearnedPrior` trusts a prediction
  only where that uncertainty is small and the model has seen enough
  samples — everywhere else it falls back, per candidate, to the
  mechanistic cost model.  An **empty** training store therefore
  degrades bit-identically to the cost-model prior.

The uncertainty-gated design follows the idiographic modeling idea
(per-subject models, trusted only within their supported region):
matrices far from anything the store has seen get the cost model, not a
confident extrapolation.

Everything here is plain NumPy linear algebra — deterministic, no
solver iteration, no random state.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.tuner.features import MatrixFeatures
from repro.utils.atomic import atomic_write_json

__all__ = [
    "FEATURE_FIELDS",
    "MODEL_VERSION",
    "LearnedTunerModel",
    "SecondsPrediction",
    "feature_vector",
    "load_model",
    "save_model",
    "save_trained_model",
]

#: Format version of persisted learned-tuner models; bump on
#: incompatible changes.
MODEL_VERSION = 1

#: MatrixFeatures fields consumed by the regression, in input order.
#: ``n_cores`` is part of the vector, so one model serves every core
#: count it has observed.
FEATURE_FIELDS: tuple[str, ...] = (
    "n",
    "nnz",
    "avg_row_nnz",
    "max_row_nnz",
    "avg_bandwidth",
    "max_bandwidth",
    "n_wavefronts",
    "avg_wavefront",
    "max_wavefront",
    "median_wavefront",
    "warmup_levels",
    "wavefront_cv",
    "cross_edge_fraction",
    "n_cores",
)

#: Fields compressed with log1p before regression (heavy-tailed scale
#: quantities; the two ratio fields stay linear).
_LOG_FIELDS = frozenset(FEATURE_FIELDS) - {"wavefront_cv",
                                           "cross_edge_fraction"}

#: Floor applied to targets before the log transform (seconds).
_SECONDS_FLOOR = 1e-12


def feature_vector(features: MatrixFeatures) -> np.ndarray:
    """The model-input vector of one :class:`MatrixFeatures`.

    Scale-like fields are ``log1p``-compressed so narrow-band 500-row
    instances and million-row meshes live on comparable axes; the two
    ratio fields (``wavefront_cv``, ``cross_edge_fraction``) enter
    linearly.

    Examples
    --------
    >>> from repro.matrix.generators import narrow_band_lower
    >>> from repro.tuner import extract_features
    >>> from repro.tuner.learn import FEATURE_FIELDS, feature_vector
    >>> f = extract_features(narrow_band_lower(200, 0.1, 8.0, seed=0),
    ...                      n_cores=4)
    >>> x = feature_vector(f)
    >>> x.shape == (len(FEATURE_FIELDS),)
    True
    """
    out = np.empty(len(FEATURE_FIELDS), dtype=np.float64)
    for i, name in enumerate(FEATURE_FIELDS):
        v = float(getattr(features, name))
        out[i] = math.log1p(max(v, 0.0)) if name in _LOG_FIELDS else v
    return out


@dataclass(frozen=True)
class SecondsPrediction:
    """One model's answer for one (features, scheduler) query.

    ``parallel_seconds``/``scheduling_seconds`` are the back-transformed
    point predictions; ``std_log`` is the leave-one-out-estimated
    predictive standard deviation of the *per-solve* target in log
    space (``std_log = 0.7`` means "within a factor ~2 at one sigma"),
    the quantity the :class:`~repro.tuner.predict.LearnedPrior` gates
    on; ``n_samples`` is the training-set size behind the answer.
    """

    scheduler: str
    parallel_seconds: float
    scheduling_seconds: float
    std_log: float
    n_samples: int


class _RidgeModel:
    """Standardized multi-output ridge with closed-form LOO variance.

    Inputs are standardized per column, targets are centered; the ridge
    system ``(Z'Z + alpha I) w = Z'Y`` is solved once.  Leave-one-out
    residuals come from the hat-matrix identity ``e_loo = e / (1 - h)``
    — no refits — and calibrate the predictive variance
    ``sigma2 * (1 + z' A^{-1} z)`` reported at query time.
    """

    __slots__ = ("mu", "sigma", "coef", "intercept", "a_inv", "sigma2",
                 "n_samples")

    def __init__(self, mu, sigma, coef, intercept, a_inv, sigma2,
                 n_samples) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = np.asarray(intercept, dtype=np.float64)
        self.a_inv = np.asarray(a_inv, dtype=np.float64)
        self.sigma2 = np.asarray(sigma2, dtype=np.float64)
        self.n_samples = int(n_samples)

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray,
            ridge_lambda: float) -> "_RidgeModel":
        m, d = x.shape
        mu = x.mean(axis=0)
        sigma = x.std(axis=0)
        sigma = np.where(sigma > 0.0, sigma, 1.0)
        z = (x - mu) / sigma
        y_mean = y.mean(axis=0)
        yc = y - y_mean
        alpha = float(ridge_lambda) * max(m, 1)
        a = z.T @ z + alpha * np.eye(d)
        a_inv = np.linalg.inv(a)
        coef = a_inv @ (z.T @ yc)
        resid = yc - z @ coef
        # hat-matrix diagonal of the ridge smoother (plus the centering
        # degree of freedom): h_i = 1/m + z_i' A^{-1} z_i
        h = 1.0 / m + np.einsum("ij,jk,ik->i", z, a_inv, z)
        denom = np.clip(1.0 - h, 1e-6, None)
        e_loo = resid / denom[:, None]
        sigma2 = np.mean(e_loo**2, axis=0)
        return cls(mu, sigma, coef, y_mean, a_inv, sigma2, m)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Point prediction (per target column) and the predictive
        standard deviation of the first (per-solve) column."""
        z = (x - self.mu) / self.sigma
        mean = self.intercept + z @ self.coef
        leverage = float(z @ self.a_inv @ z)
        var = float(self.sigma2[0]) * (1.0 + 1.0 / self.n_samples
                                       + max(leverage, 0.0))
        return mean, math.sqrt(max(var, 0.0))

    def as_dict(self) -> dict:
        return {
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "coef": self.coef.tolist(),
            "intercept": self.intercept.tolist(),
            "a_inv": self.a_inv.tolist(),
            "sigma2": self.sigma2.tolist(),
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_RidgeModel":
        return cls(data["mu"], data["sigma"], data["coef"],
                   data["intercept"], data["a_inv"], data["sigma2"],
                   data["n_samples"])


class LearnedTunerModel:
    """The per-scheduler ridge ensemble behind the learned prior.

    One :class:`_RidgeModel` per **(scheduler, reordered)** variant,
    trained on the observation records an
    :class:`~repro.store.ObservationStore` accumulates (see
    :meth:`ObservationStore.add_observation
    <repro.store.ObservationStore.add_observation>`).  Keying by
    the effective Section 5 reorder flag keeps reordered and unpermuted
    seconds apart — a model trained from CLI tunes (scheduler-default
    reordering) answers a ``reorder=False`` ranking only from matching
    observations, falling back to the cost model otherwise.  An empty model is valid
    — it predicts nothing, so a
    :class:`~repro.tuner.predict.LearnedPrior` built on it falls back
    to the cost model for every candidate.

    Examples
    --------
    >>> from repro.tuner import LearnedTunerModel
    >>> model = LearnedTunerModel.fit([])          # empty store
    >>> sorted(model.schedulers)
    []
    >>> model.predict_from_vector(None, "growlocal") is None
    True
    """

    def __init__(
        self,
        models: dict[tuple[str, bool], _RidgeModel] | None = None,
        *, ridge_lambda: float = 1e-2, mode: str = "",
    ) -> None:
        self._models = dict(models or {})
        self.ridge_lambda = float(ridge_lambda)
        #: Measurement regime of the training targets ("simulated",
        #: "measured", or "" for an empty model).  Consumed by the
        #: :class:`~repro.tuner.predict.LearnedPrior`: wall-clock-
        #: trained predictions are never ranked against simulated
        #: cost-model fallback scores in one objective.
        self.mode = str(mode)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        observations: Iterable[dict],
        *,
        ridge_lambda: float = 1e-2,
        min_fit_samples: int = 2,
        mode: str | None = None,
    ) -> "LearnedTunerModel":
        """Train one model per scheduler from observation records.

        ``observations`` is any iterable of record dicts — a plain
        list or an :class:`~repro.store.ObservationStore` (iterated
        once, shard by shard; no materialized copy of the store is
        required).

        Each record carries ``features`` (a
        :meth:`MatrixFeatures.as_dict` payload), ``scheduler``,
        ``seconds`` (measured or simulated per-solve seconds),
        ``scheduling_seconds``, the effective ``reordered`` flag
        (records are grouped per (scheduler, reordered) variant) and
        the ``mode`` the seconds were obtained under.  Records that
        fail to parse are skipped (a training store survives hand
        edits); variants with fewer than ``min_fit_samples`` usable
        records get no model at all — the gate in
        :class:`~repro.tuner.predict.LearnedPrior` then falls back to
        the cost model for them.

        ``mode`` restricts training to one measurement regime:
        simulated cost-model seconds and measured wall-clock seconds
        differ systematically, so pooling them into one regressor would
        silently bias every prediction.  ``None`` (the default)
        auto-selects the majority mode of the store — a single-mode
        store trains on everything, a mixed store trains on its
        dominant regime (``"measured"`` winning ties: it is ground
        truth) and drops the rest.
        """
        parsed = []
        for obs in observations:
            try:
                feats = MatrixFeatures.from_dict(obs["features"])
                name = str(obs["scheduler"])
                reordered = bool(obs.get("reordered", False))
                seconds = float(obs["seconds"])
                sched_seconds = float(obs.get("scheduling_seconds", 0.0))
                obs_mode = str(obs.get("mode", ""))
            except (KeyError, TypeError, ValueError):
                continue
            if not (math.isfinite(seconds) and seconds >= 0.0):
                continue
            parsed.append((name, reordered, obs_mode, feats, seconds,
                           sched_seconds))

        if mode is None and parsed:
            counts: dict[str, int] = {}
            for _, _, obs_mode, _, _, _ in parsed:
                counts[obs_mode] = counts.get(obs_mode, 0) + 1
            # majority mode; "measured" (alphabetically first) wins ties
            mode = min(counts, key=lambda m: (-counts[m], m))

        grouped: dict[tuple[str, bool],
                      list[tuple[np.ndarray, float, float]]] = {}
        for name, reordered, obs_mode, feats, seconds, sched_seconds \
                in parsed:
            if mode is not None and obs_mode != mode:
                continue
            grouped.setdefault((name, reordered), []).append(
                (feature_vector(feats), seconds, sched_seconds)
            )

        models: dict[tuple[str, bool], _RidgeModel] = {}
        for variant_key, rows in grouped.items():
            if len(rows) < max(int(min_fit_samples), 2):
                continue
            x = np.stack([r[0] for r in rows])
            y = np.log(np.maximum(
                np.array([[r[1], r[2]] for r in rows], dtype=np.float64),
                _SECONDS_FLOOR,
            ))
            models[variant_key] = _RidgeModel.fit(x, y, ridge_lambda)
        return cls(models, ridge_lambda=ridge_lambda,
                   mode=(mode or "") if models else "")

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    @property
    def schedulers(self) -> list[str]:
        """Scheduler names at least one variant model exists for."""
        return sorted({name for name, _ in self._models})

    def n_samples(self, scheduler: str,
                  reordered: bool | None = None) -> int:
        """Training-set size behind ``scheduler``'s model (0: none);
        summed over both reorder variants when ``reordered`` is
        ``None``."""
        if reordered is not None:
            model = self._models.get((scheduler, bool(reordered)))
            return model.n_samples if model is not None else 0
        return sum(
            model.n_samples
            for (name, _), model in self._models.items()
            if name == scheduler
        )

    def __len__(self) -> int:
        return len(self._models)

    def predict(
        self, features: MatrixFeatures, scheduler: str,
        *, reordered: bool = False,
    ) -> SecondsPrediction | None:
        """Predict ``scheduler``'s seconds on ``features`` (or ``None``
        when no model exists for this (scheduler, reordered)
        variant)."""
        return self.predict_from_vector(feature_vector(features),
                                        scheduler, reordered=reordered)

    def predict_from_vector(
        self, x: np.ndarray | None, scheduler: str,
        *, reordered: bool = False,
    ) -> SecondsPrediction | None:
        """:meth:`predict` on a precomputed :func:`feature_vector`
        (the prior extracts the vector once per instance, then queries
        every candidate against it)."""
        model = self._models.get((scheduler, bool(reordered)))
        if model is None or x is None:
            return None
        mean_log, std_log = model.predict(np.asarray(x, dtype=np.float64))
        return SecondsPrediction(
            scheduler=scheduler,
            parallel_seconds=float(np.exp(mean_log[0])),
            scheduling_seconds=float(np.exp(mean_log[1])),
            std_log=float(std_log),
            n_samples=model.n_samples,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "version": MODEL_VERSION,
            "feature_fields": list(FEATURE_FIELDS),
            "ridge_lambda": self.ridge_lambda,
            "mode": self.mode,
            "models": [
                {"scheduler": name, "reordered": reordered,
                 **model.as_dict()}
                for (name, reordered), model in sorted(self._models.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LearnedTunerModel":
        if data.get("version") != MODEL_VERSION:
            raise ConfigurationError(
                f"learned tuner model has version "
                f"{data.get('version')!r}; this build reads version "
                f"{MODEL_VERSION}"
            )
        fields = tuple(data.get("feature_fields", ()))
        if fields != FEATURE_FIELDS:
            raise ConfigurationError(
                "learned tuner model was trained on a different feature "
                f"set {fields!r}; expected {FEATURE_FIELDS!r}"
            )
        models = {
            (str(payload["scheduler"]), bool(payload["reordered"])):
                _RidgeModel.from_dict(payload)
            for payload in list(data.get("models", []))
        }
        return cls(models,
                   ridge_lambda=float(data.get("ridge_lambda", 1e-2)),
                   mode=str(data.get("mode", "")))


def save_model(model: LearnedTunerModel, path: str | os.PathLike) -> None:
    """Write ``model`` as versioned JSON (inverse: :func:`load_model`).

    Examples
    --------
    >>> import tempfile, os.path
    >>> from repro.tuner import LearnedTunerModel, load_model, save_model
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = os.path.join(tmp, "model.json")
    ...     save_model(LearnedTunerModel.fit([]), path)
    ...     len(load_model(path))
    0

    The write is atomic (temp file + rename): a crash mid-save never
    corrupts a previously good model file.
    """
    atomic_write_json(model.as_dict(), path)


def save_trained_model(
    model: LearnedTunerModel, path: str | os.PathLike
) -> None:
    """:func:`save_model` for a fresh fit, refusing to replace an
    existing model file with an empty one.

    A fit that learned nothing (too few observations per
    (scheduler, reordered) variant) raises
    :class:`~repro.errors.ConfigurationError` when ``path`` already
    exists, so a retrain on thin data never discards a working model;
    with no file at ``path`` the empty model is written.  ``repro tune
    --train`` and :meth:`~repro.store.ObservationStore.retrain` both
    write through this guard.
    """
    if len(model) == 0 and os.path.exists(path):
        raise ConfigurationError(
            f"the fit yielded no models (too few observations per "
            f"(scheduler, reordered) variant); refusing to overwrite "
            f"the existing model {os.fspath(path)} with an empty one — "
            f"accumulate more observations first"
        )
    save_model(model, path)


def load_model(path: str | os.PathLike) -> LearnedTunerModel:
    """Load a model written by :func:`save_model`.

    Raises :class:`~repro.errors.ConfigurationError` on a version or
    feature-set mismatch, or a structurally invalid file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"learned tuner model {path!s} is not valid JSON: {exc}"
            ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"learned tuner model {path!s}: expected a JSON object"
        )
    try:
        return LearnedTunerModel.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"learned tuner model {path!s} is malformed: {exc}"
        ) from None
