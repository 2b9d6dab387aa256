"""Shared test helpers: small random ASRS instances with known structure.

Instances snap coordinates to a coarse lattice so duplicate coordinates
and aligned edges (the nasty cases for clean/dirty classification) occur
often.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregators import (
    ALL,
    CompositeAggregator,
    Selection,
    avg,
    dist_agg,
    sum_agg,
)

COLORS = ("red", "blue", "green")


def random_objects(rng: np.random.Generator, n: int, *, lattice: float = 0.25, span: float = 10.0) -> pd.DataFrame:
    """Random objects on a lattice with a categorical and a numeric attribute."""
    x = np.round(rng.uniform(0, span) + rng.uniform(0, span, n) / lattice) * lattice
    y = np.round(rng.uniform(0, span, n) / lattice) * lattice
    color = rng.choice(COLORS, n)
    val = np.round(rng.uniform(-5, 10, n), 2)
    return pd.DataFrame({"x": x, "y": y, "color": color, "val": val})


def aggregator_zoo() -> list[CompositeAggregator]:
    """Composite aggregators covering fD / fS / fA, selections, and mixes."""
    red = Selection("color", ("red",))
    return [
        CompositeAggregator((dist_agg("color", domain=COLORS),)),
        CompositeAggregator((sum_agg("val"),)),
        CompositeAggregator((avg("val"),)),
        CompositeAggregator((sum_agg("val", red), avg("val", red))),
        CompositeAggregator((dist_agg("color", domain=COLORS), avg("val"), sum_agg("val", red))),
    ]


def random_query(rng: np.random.Generator, F: CompositeAggregator, objects: pd.DataFrame, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """A query representation sampled from a real sub-region (query-by-example),
    plus random positive weights."""
    from repro.core.geometry import Space
    from repro.core.reduction import query_representation

    # centre the example region near a random object so it is rarely empty
    k = int(rng.integers(0, len(objects)))
    px = float(objects["x"].iloc[k]) - a / 2 + rng.uniform(-a / 4, a / 4)
    py = float(objects["y"].iloc[k]) - b / 2 + rng.uniform(-b / 4, b / 4)
    qrep = query_representation(objects, F, Space(px, px + a, py, py + b))
    w = np.round(rng.uniform(0.1, 2.0, len(qrep)), 3)
    return qrep, w


#: Queries that break the input contract, as edits of the valid
#: one-channel fS query ``a = b = 1, query_rep = [1], weights = [1]``.
BAD_QUERIES = {
    "a_negative": {"a": -1.0},
    "a_nan": {"a": np.nan},
    "b_inf": {"b": np.inf},
    "b_zero": {"b": 0.0},
    "query_rep_nan": {"qrep": np.array([np.nan])},
    "query_rep_too_long": {"qrep": np.array([1.0, 1.0]), "w": np.array([1.0, 1.0])},
    "weights_inf": {"w": np.array([np.inf])},
    "weights_too_short": {"w": np.zeros(0)},
    "weights_negative": {"w": np.array([-1.0])},
}


def bad_query(case: str) -> dict:
    """Keyword arguments ``qrep, w, a, b`` of the ``BAD_QUERIES`` case."""
    return {"qrep": np.array([1.0]), "w": np.array([1.0]), "a": 1.0, "b": 1.0, **BAD_QUERIES[case]}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def fig1_objects() -> pd.DataFrame:
    """The paper's Figure-1 / Example-2 query-region content: two
    apartments (prices 2 and 1.5), one supermarket, one restaurant,
    one bus stop, all placed inside the unit square."""
    return pd.DataFrame(
        {
            "x": [0.2, 0.4, 0.6, 0.8, 0.5],
            "y": [0.2, 0.8, 0.4, 0.6, 0.5],
            "category": ["Apartment", "Apartment", "Supermarket", "Restaurant", "Bus stop"],
            "price": [2.0, 1.5, 0.0, 0.0, 0.0],
        }
    )
