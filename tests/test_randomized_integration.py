"""Randomized full-pipeline integration: hypothesis drives whole heat solves.

One test to rule out configuration-dependent bugs: random shapes, region
counts, slot limits, boundary conditions, tile shapes and step counts —
every combination must match the pure-numpy reference exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import run_tida
from repro.baselines.common import default_init, reference_heat
from repro.config import k40m_pcie3
from repro.tida.boundary import Dirichlet, Neumann, Periodic


config_strategy = st.fixed_dictionaries(
    {
        "nx": st.integers(6, 14),
        "ny": st.integers(4, 8),
        "n_regions": st.integers(1, 4),
        "slots": st.sampled_from([None, 1, 2]),
        "steps": st.integers(1, 5),
        "bc": st.sampled_from([Neumann(), Dirichlet(0.25), Periodic()]),
        "gpu": st.booleans(),
        "split_tiles": st.booleans(),
    }
)


@given(cfg=config_strategy)
@settings(max_examples=25, deadline=None)
def test_random_heat_configurations_match_reference(cfg):
    shape = (cfg["nx"], cfg["ny"], 6)
    if cfg["n_regions"] > cfg["nx"]:
        return
    n_slots = cfg["slots"]
    if n_slots is not None:
        n_slots = min(n_slots, cfg["n_regions"])
    tile_shape = None
    if cfg["split_tiles"] and cfg["n_regions"] <= cfg["nx"] // 2:
        slab = -(-cfg["nx"] // cfg["n_regions"])  # ceil
        tile_shape = (max(1, slab // 2), cfg["ny"], 6)

    init = default_init(shape, 1)
    ref = reference_heat(init, cfg["steps"], coef=0.1, bc=cfg["bc"], ghost=1)
    r = run_tida(
        "heat", k40m_pcie3(),
        shape=shape,
        steps=cfg["steps"],
        n_regions=cfg["n_regions"],
        n_slots=n_slots,
        bc=cfg["bc"],
        gpu=cfg["gpu"],
        tile_shape=tile_shape,
        functional=True,
        initial=init[1:-1, 1:-1, 1:-1].copy(),
    )
    np.testing.assert_allclose(r.result, ref, err_msg=f"config: {cfg}")
