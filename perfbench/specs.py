"""Seeded inputs of every workload.

The seed only moves physical parameters that leave the cost of a step
unchanged — perturbation amplitudes and phases, field seeds, drifts and
thermal speeds — never grids, polynomial order, species count, step
counts or scan size, so two seeds do the same work on different data.
The program receives only the generated :class:`SimulationSpec` objects.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from repro.runtime.scenarios import build
from repro.runtime.spec import (
    DiagnosticsSpec,
    FieldInitSpec,
    GridSpec,
    SimulationSpec,
    SpeciesSpec,
)

#: a run ends on its step cap, never on t_end
T_END = 1.0e6


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def table1_2x3v(seed: int, steps: int) -> SimulationSpec:
    """Paper Table I: 2X3V, p=2 Serendipity (112 DOF/cell), electrons and
    protons, Vlasov–Maxwell, 4x4 configuration x 6^3 velocity cells, cfl
    0.5, SSP-RK3, modal scheme, serial ``numpy`` backend."""
    rng = _rng(seed, "table1_2x3v")
    k = 2.0 * math.pi
    vgrid_e = GridSpec((-5.0,) * 3, (5.0,) * 3, (6, 6, 6))
    vgrid_p = GridSpec((-1.5,) * 3, (1.5,) * 3, (6, 6, 6))
    return SimulationSpec(
        name="table1_2x3v",
        model="maxwell",
        conf_grid=GridSpec((0.0, 0.0), (1.0, 1.0), (4, 4)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=vgrid_e,
                initial={
                    "kind": "maxwellian",
                    "vt": 1.0,
                    "perturbation": {
                        "amp": rng.uniform(0.05, 0.15),
                        "k": k,
                        "axis": rng.randrange(2),
                        "phase": rng.uniform(0.0, 2.0 * math.pi),
                    },
                },
            ),
            SpeciesSpec(
                name="prot",
                charge=1.0,
                mass=25.0,
                velocity_grid=vgrid_p,
                initial={"kind": "maxwellian", "vt": 0.5},
            ),
        ),
        field=FieldInitSpec(
            initial={
                "Ex": {
                    "kind": "sine",
                    "amp": rng.uniform(0.005, 0.015),
                    "k": k,
                    "phase": rng.uniform(0.0, 2.0 * math.pi),
                }
            }
        ),
        poly_order=2,
        family="serendipity",
        cfl=0.5,
        scheme="modal",
        stepper="ssp-rk3",
        backend="numpy",
        t_end=T_END,
        steps=steps,
    )


def weibel_2x2v_sharded(seed: int, steps: int) -> SimulationSpec:
    """The ``weibel_2x2v`` scenario (paper Fig. 5: 2X2V p=2, 6x6 x 14x14
    cells) on two forked shard workers."""
    rng = _rng(seed, "weibel_2x2v_sharded")
    return build(
        "weibel_2x2v",
        drift=rng.uniform(0.5, 0.7),
        vt=rng.uniform(0.18, 0.22),
        seed_amp=rng.uniform(0.5e-5, 2e-5),
        steps=steps,
        t_end=T_END,
        backend="process:2",
    )


def shock_1x1v(seed: int, steps: int, checkpoint_interval: int) -> SimulationSpec:
    """The ``multispecies_shock`` scenario (electrons + two LBO-collisional
    ion beams, Vlasov–Poisson, 1X1V p=2, 24 x 24 cells), diagnostics every
    step and periodic checkpoints."""
    rng = _rng(seed, "shock_1x1v")
    spec = build(
        "multispecies_shock",
        drift=rng.uniform(0.9, 1.1),
        amp=rng.uniform(0.3, 0.5),
        vt_ion=rng.uniform(0.07, 0.09),
        steps=steps,
        t_end=T_END,
    )
    return replace(
        spec,
        diagnostics=DiagnosticsSpec(
            energy_interval=1, checkpoint_interval=checkpoint_interval
        ),
    )


def landau_scan(seed: int, count: int, steps: int) -> list:
    """``count`` distinct short ``landau_damping`` specs (16 x 24 cells,
    p=2, ``steps`` steps each): wave number, amplitude and thermal speed
    are drawn from the seed, so every spec is a new job."""
    rng = _rng(seed, "serve_scan")
    specs, seen = [], set()
    while len(specs) < count:
        params = (
            round(rng.uniform(0.3, 0.6), 6),
            round(rng.uniform(5e-4, 5e-3), 8),
            round(rng.uniform(0.9, 1.1), 6),
        )
        if params in seen:
            continue
        seen.add(params)
        k, amp, vt = params
        specs.append(
            build("landau_damping", k=k, amp=amp, vt=vt, steps=steps, t_end=T_END)
        )
    return specs
