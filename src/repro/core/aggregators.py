"""Composite aggregators (paper Section 3.2), channelised for bound math.

The paper defines three aggregators, each taking a region ``r``, an
attribute ``A`` and a selection function ``gamma``:

- ``fD`` (distribution): per-value counts over ``dom(A)``;
- ``fA`` (average): mean of ``A`` over the selected objects;
- ``fS`` (sum): sum of ``A`` over the selected objects.

A *composite aggregator* ``F = ((f1, A1, g1), ..., (fk, Ak, gk))``
concatenates their outputs into the *aggregate representation* ``F(r)``.

Channelisation
--------------
Every algorithm in this reproduction (Discretize's clean-cell
representations and dirty-cell bound sandwiches, the grid index's
summary tables, the sweep line's incremental state) only ever needs
*sums of per-object weights* over some object set. So each prepared
spec exposes a fixed set of linear channels:

====  ==========================  =============================
kind  channels                    representation from channels
====  ==========================  =============================
dist  one 0/1 indicator per       counts as-is
      domain value (gamma-masked)
sum   pos = max(v,0), neg =       pos + neg
      min(v,0) (gamma-masked)
avg   cnt, pos, neg               (pos+neg)/cnt, 0 if cnt == 0
====  ==========================  =============================

Given channel sums for the *certainly included* object set (``full``)
and the *possibly included* superset (``cover``), each spec computes a
valid ``[v_lo, v_hi]`` sandwich for the representation of any object
set ``S`` with ``full_set <= S <= cover_set`` — exactly the
``R_g \\subseteq R_p \\subseteq \\bar{R}_g`` situation of Section 4.3
and the bounded/bounding-region situation of Section 5.3.

``fA`` of an empty selection is defined as 0 (the paper leaves this
case open); its dirty-cell bounds additionally use the global
``[amin, amax]`` of the selected attribute values (see DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Sequence

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Selection:
    """A selection function ``gamma``: keep objects with ``attr`` in ``values``.

    ``attr is None`` means *select all* (the paper's ``gamma_all``).
    """

    attr: str | None = None
    values: tuple = ()

    def mask(self, df: pd.DataFrame) -> np.ndarray:
        if self.attr is None:
            return np.ones(len(df), dtype=bool)
        return df[self.attr].isin(self.values).to_numpy()

    def describe(self) -> str:
        if self.attr is None:
            return "all"
        return f"{self.attr}∈{list(self.values)}"


ALL = Selection()

#: Number of value buckets carried per fA spec. The buckets tighten the
#: dirty-cell average bounds: with only global [amin, amax] the bound on
#: "how high could the average get if some partial rectangles joined" is
#: uselessly loose (any cell could reach amax); per-bucket partial
#: counts let a prefix-greedy pass bound the best achievable average by
#: bucket edges instead. The paper leaves fA bounds unspecified ("we can
#: bound the output of other aggregators similarly") — this is our
#: concrete, provably valid realisation (see PreparedSpec.bounds).
AVG_BUCKETS = 8


@dataclass(frozen=True)
class AggregatorSpec:
    """One ``(f, A, gamma)`` entry of a composite aggregator.

    ``kind`` is ``'dist'`` (fD), ``'avg'`` (fA) or ``'sum'`` (fS).
    ``domain`` fixes ``dom(A)`` for fD; when empty it is derived from
    the dataset at ``prepare`` time (sorted unique values).
    """

    kind: str
    attr: str
    gamma: Selection = ALL
    domain: tuple = ()

    def __post_init__(self):
        if self.kind not in ("dist", "avg", "sum"):
            raise ValueError(f"unknown aggregator kind: {self.kind!r}")


def dist_agg(attr: str, gamma: Selection = ALL, domain: Sequence[Any] = ()) -> AggregatorSpec:
    """The distribution aggregator fD over ``dom(attr)``."""
    return AggregatorSpec("dist", attr, gamma, tuple(domain))


def avg(attr: str, gamma: Selection = ALL) -> AggregatorSpec:
    """The average aggregator fA."""
    return AggregatorSpec("avg", attr, gamma)


def sum_agg(attr: str, gamma: Selection = ALL) -> AggregatorSpec:
    """The sum aggregator fS."""
    return AggregatorSpec("sum", attr, gamma)


@dataclass
class PreparedSpec:
    """A spec with its fD domain / fA ``[amin, amax]`` range fixed.

    Summing ``Prepared.channel_weights`` rows over any object subset
    yields that subset's channel sums.
    """

    spec: AggregatorSpec
    domain: tuple = ()
    amin: float = 0.0
    amax: float = 0.0

    @property
    def n_channels(self) -> int:
        k = self.spec.kind
        return len(self.domain) if k == "dist" else 2 if k == "sum" else 3 + AVG_BUCKETS

    @property
    def out_dim(self) -> int:
        return len(self.domain) if self.spec.kind == "dist" else 1

    @property
    def bucket_edges(self) -> np.ndarray:
        """Value-bucket boundaries for fA specs (AVG_BUCKETS buckets over
        the gamma-selected value range)."""
        return np.linspace(self.amin, self.amax, AVG_BUCKETS + 1)

    def rep(self, sums: np.ndarray) -> np.ndarray:
        """Representation from channel sums; ``sums[..., n_channels]``."""
        k = self.spec.kind
        if k == "dist":
            return sums
        if k == "sum":
            return (sums[..., 0] + sums[..., 1])[..., None]
        cnt, s = sums[..., 0], sums[..., 1] + sums[..., 2]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(cnt > 0, s / np.maximum(cnt, 1e-300), 0.0)
        return out[..., None]

    def bounds(self, full: np.ndarray, cover: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[v_lo, v_hi]`` sandwich from full/cover channel sums.

        Valid for the representation of any object set sandwiched
        between the full set and the cover set.
        """
        k = self.spec.kind
        if k == "dist":
            return full.copy(), cover.copy()
        if k == "sum":
            lo = full[..., 0] + cover[..., 1]
            hi = cover[..., 0] + full[..., 1]
            return lo[..., None], hi[..., None]
        # fA: prefix-greedy over value buckets. Any achievable average is
        # attained by adding some subset of the partial objects to the
        # full set; replacing each added value by its bucket's upper
        # (lower) edge and sweeping bucket prefixes from the top (bottom)
        # upper- (lower-) bounds the achievable range — within a bucket
        # the modified values are identical, so the optimum over subset
        # sizes sits at a prefix boundary.
        n0, s0 = full[..., 0], full[..., 1] + full[..., 2]
        pk = np.maximum(cover[..., 3:] - full[..., 3:], 0.0)
        edges = self.bucket_edges
        with np.errstate(invalid="ignore", divide="ignore"):
            base = np.where(n0 > 0, s0 / np.maximum(n0, 1e-300), 0.0)
        hi = base.copy()
        num, den = s0.copy(), n0.copy()
        for kb in range(AVG_BUCKETS - 1, -1, -1):
            num = num + pk[..., kb] * edges[kb + 1]
            den = den + pk[..., kb]
            with np.errstate(invalid="ignore", divide="ignore"):
                cand = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            hi = np.maximum(hi, cand)
        lo = base.copy()
        num, den = s0.copy(), n0.copy()
        for kb in range(AVG_BUCKETS):
            num = num + pk[..., kb] * edges[kb]
            den = den + pk[..., kb]
            with np.errstate(invalid="ignore", divide="ignore"):
                cand = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            lo = np.minimum(lo, cand)
        return lo[..., None], hi[..., None]


@dataclass
class Prepared:
    """A composite aggregator's channel layout, bound to an object table
    by ``CompositeAggregator.prepare`` (``weights``) or to metadata alone
    by ``prepare_meta`` (``weights`` has no rows)."""

    specs: list[PreparedSpec]
    n_channels: int
    ch_slices: list[slice]
    weights: np.ndarray = field(repr=False)  # (n_objects, n_channels)

    @property
    def out_dim(self) -> int:
        return sum(ps.out_dim for ps in self.specs)

    def channel_weights(self, df: pd.DataFrame) -> np.ndarray:
        """Per-object channel weights ``(len(df), n_channels)``: the one
        definition of the channels (see the module docstring).

        Each row depends only on its own object and this layout's fD
        domains and fA ranges, so the weights of any row partition are
        the matching rows of the whole table's. fD values outside the
        domain get no channel.
        """
        W = np.zeros((len(df), self.n_channels))
        for ps, sl in zip(self.specs, self.ch_slices):
            spec, w = ps.spec, W[:, sl]
            gmask = spec.gamma.mask(df)
            if spec.kind == "dist":
                codes = pd.Categorical(df[spec.attr], categories=list(ps.domain)).codes
                rows = np.flatnonzero(gmask & (codes >= 0))
                w[rows, codes[rows]] = 1.0
                continue
            vals = df[spec.attr].to_numpy(dtype=np.float64)
            g = gmask.astype(np.float64)
            if spec.kind == "sum":
                w[:, 0] = np.maximum(vals, 0.0) * g
                w[:, 1] = np.minimum(vals, 0.0) * g
                continue
            # avg: cnt, pos, neg, then one-hot value buckets over [amin, amax]
            w[:, 0] = g
            w[:, 1] = np.maximum(vals, 0.0) * g
            w[:, 2] = np.minimum(vals, 0.0) * g
            width = (ps.amax - ps.amin) or 1.0
            code = np.clip(
                np.floor((vals - ps.amin) / width * AVG_BUCKETS).astype(np.int64),
                0,
                AVG_BUCKETS - 1,
            )
            rows = np.flatnonzero(gmask)
            w[rows, 3 + code[rows]] = 1.0
        return W

    def rep_from_sums(self, sums: np.ndarray) -> np.ndarray:
        """Representation from concatenated channel sums ``[..., n_channels]``."""
        parts = [ps.rep(sums[..., sl]) for ps, sl in zip(self.specs, self.ch_slices)]
        return np.concatenate(parts, axis=-1)

    def bounds_from_sums(
        self, full: np.ndarray, cover: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[v_lo, v_hi]`` sandwich from concatenated full/cover sums."""
        los, his = [], []
        for ps, sl in zip(self.specs, self.ch_slices):
            lo, hi = ps.bounds(full[..., sl], cover[..., sl])
            los.append(lo)
            his.append(hi)
        return np.concatenate(los, axis=-1), np.concatenate(his, axis=-1)

    def rep_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """Representation of the object subset selected by a boolean mask."""
        return self.rep_from_sums(self.weights[mask].sum(axis=0))

    def empty_rep(self) -> np.ndarray:
        """Representation of the empty object set (all-zero channels)."""
        return self.rep_from_sums(np.zeros(self.n_channels))


def prepare_meta(
    F: "CompositeAggregator",
    domains: dict[int, tuple] | None = None,
    minmax: dict[int, tuple[float, float]] | None = None,
) -> Prepared:
    """The channel layout of ``F``, built from metadata alone.

    ``domains[i]`` supplies spec ``i``'s fD domain when the spec does not
    fix one (an fD domain given by neither is empty); ``minmax[i]`` its
    fA ``[amin, amax]`` (default ``(0, 0)``). The Spark layer builds its
    layout here from globally collected metadata, so every task's
    ``channel_weights`` and the driver's bound math agree. ``weights``
    has no rows — ``rep_for_mask`` is unavailable.
    """
    domains = domains or {}
    minmax = minmax or {}
    specs = []
    for i, spec in enumerate(F.specs):
        if spec.kind == "dist":
            specs.append(PreparedSpec(spec, domain=tuple(spec.domain or domains.get(i, ()))))
        else:
            amin, amax = minmax.get(i, (0.0, 0.0))
            specs.append(PreparedSpec(spec, amin=float(amin), amax=float(amax)))
    ends = list(accumulate((ps.n_channels for ps in specs), initial=0))
    return Prepared(
        specs=specs,
        n_channels=ends[-1],
        ch_slices=[slice(c0, c1) for c0, c1 in zip(ends, ends[1:])],
        weights=np.zeros((0, ends[-1])),
    )


@dataclass(frozen=True)
class CompositeAggregator:
    """The paper's composite aggregator ``F``; see Definition 2."""

    specs: tuple[AggregatorSpec, ...]

    def prepare(self, df: pd.DataFrame) -> Prepared:
        """Bind to an object table: fD domains not fixed on a spec and fA
        ``[amin, amax]`` come from ``df``, then every object's channel
        weights are materialised."""
        domains, minmax = {}, {}
        for i, spec in enumerate(self.specs):
            if spec.kind == "dist" and not spec.domain:
                domains[i] = tuple(sorted(pd.unique(df[spec.attr]).tolist()))
            elif spec.kind == "avg":
                vals = df[spec.attr].to_numpy(dtype=np.float64)[spec.gamma.mask(df)]
                minmax[i] = (vals.min(), vals.max()) if len(vals) else (0.0, 0.0)
        prepared = prepare_meta(self, domains, minmax)
        prepared.weights = prepared.channel_weights(df)
        return prepared

    @property
    def k(self) -> int:
        return len(self.specs)
