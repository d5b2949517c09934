"""Seeded YAML inputs for the benchmark workloads.

Every workload starts from the bundled table1 reference design. The
generators draw only from the ``random.Random`` they are given, so one seed
always yields the same files. YAML is written as text here so that the
generator needs nothing outside the standard library; the program under
test receives only these files.
"""

from __future__ import annotations

import random

# table1.yaml: (name, s_rated_va, line_resistance_ohm, line_inductance_uh,
# virtual_resistance_ohm, kp, ki). Every unit has i_max_a 55 and a 1.5 ms
# trip holdoff.
TABLE1_UNITS = (
    ("Inv 1", 6000.0, 0.15, 40.0, 0.16, 4.31e-3, 260.0),
    ("Inv 2", 9000.0, 0.30, 45.0, 0.12, 4.45e-3, 259.0),
    ("Inv 3", 8000.0, 0.25, 50.0, 0.06, 4.67e-3, 255.0),
    ("Inv 4", 12000.0, 0.35, 60.0, 0.00, 4.76e-3, 265.0),
    ("Inv 5", 10000.0, 0.30, 65.0, 0.04, 4.57e-3, 255.0),
)
TABLE1_I_MAX_A = 55.0
TABLE1_HOLDOFF_S = 1.5e-3
TABLE1_SCENARIO = {"t_fault_s": 3.0e-3, "t_clear_s": 4.0e-3, "fault_depth": 0.3,
                   "t_end_s": 22.0e-3, "dt_s": 1.0e-5}
TABLE1_CCT = {"t_min_s": 2.0e-4, "t_max_s": 4.5e-3, "resolution_s": 5.0e-5,
              "audit_samples": 5}

# Each run draws this many inputs and times ops on all of them, so that one
# seed's inputs cover the range the workload varies over.
INPUTS_PER_RUN = 2
# cct_search draws one input per depth range, INPUTS_PER_RUN ranges in all;
# further candidates stand by in case the reference bracket of one is invalid.
CCT_DEPTH_RANGES = ((0.3, 0.5), (0.5, 0.7))
CCT_CANDIDATES = 5

WIDE_FLEET_UNITS = 20


def _num(x: float) -> str:
    """A float literal that YAML 1.1 reads as a float (it needs a '.')."""
    text = repr(float(x))
    if "e" in text and "." not in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return round(value * rng.uniform(1.0 - share, 1.0 + share), 12)


def _unit(name, s_rated, r_line, l_uh, r_virtual, kp, ki, i_max) -> dict:
    return {"name": name, "s_rated_va": s_rated, "line_resistance_ohm": r_line,
            "line_inductance_uh": l_uh, "virtual_resistance_ohm": r_virtual,
            "kp": kp, "ki": ki, "i_max_a": i_max, "trip_holdoff_s": TABLE1_HOLDOFF_S}


def _document(fleet: list[dict], scenario: dict, cct: dict | None = None) -> str:
    lines = [
        "grid:",
        "  v_th_volts: 230.0",
        "  v_th_angle_rad: 0.0",
        "  z_th_ohms: {r: 0.20, x: 0.10}",
        "  z_load_ohms: {r: 0.10, x: 0.05}",
        "  frequency_hz: 60.0",
        "  v_nominal_volts: 230.0",
        "fleet:",
    ]
    for unit in fleet:
        lines.append(f"  - name: {unit['name']}")
        lines += [f"    {k}: {_num(v)}" for k, v in unit.items() if k != "name"]
    lines.append("scenario:")
    lines += [f"  {k}: {_num(v)}" for k, v in scenario.items()]
    lines += [
        "solver:",
        "  tol_rel: 1.0e-9",
        "  max_iter: 100",
        "  damping: 0.7",
        "  lag_mode: false",
        "stability:",
        "  settle_tol_rad: 0.02",
        "  settle_window_s: 1.3e-2",
    ]
    if cct is not None:
        lines.append("  cct:")
        lines += [f"    {k}: {v if isinstance(v, int) else _num(v)}" for k, v in cct.items()]
    return "\n".join(lines) + "\n"


def wide_fleet(rng: random.Random) -> str:
    """Twenty units, each within 10 % of one of table1's five.

    Ratings and ceilings shrink by 5/20 and impedances grow by 20/5, so the
    fleet's total rating and the feeder loading match table1. A unit's
    ceiling follows its own rating, which keeps the voltage at which it
    starts limiting as in table1.
    """
    scale = len(TABLE1_UNITS) / WIDE_FLEET_UNITS
    fleet = []
    for k in range(WIDE_FLEET_UNITS):
        _, s, r, l_uh, rv, kp, ki = TABLE1_UNITS[k % len(TABLE1_UNITS)]
        rating = rng.uniform(0.9, 1.1)
        fleet.append(_unit(
            f"U{k + 1:02d}", round(s * scale * rating, 6),
            _jitter(rng, r / scale, 0.1), _jitter(rng, l_uh / scale, 0.1),
            _jitter(rng, rv / scale, 0.1), _jitter(rng, kp, 0.1), _jitter(rng, ki, 0.1),
            round(TABLE1_I_MAX_A * scale * rating, 6),
        ))
    return _document(fleet, TABLE1_SCENARIO)


def _table1_fleet(rng: random.Random) -> list[dict]:
    """table1's fleet with every rating within 5 % of its own."""
    return [
        _unit(name, _jitter(rng, s, 0.05), r, l_uh, rv, kp, ki, TABLE1_I_MAX_A)
        for name, s, r, l_uh, rv, kp, ki in TABLE1_UNITS
    ]


def cct_search(rng: random.Random, depths: tuple[float, float]) -> str:
    """table1 with a fault depth in the given range, ratings within 5 % and
    the reference bracket."""
    scenario = dict(TABLE1_SCENARIO, fault_depth=round(rng.uniform(*depths), 6))
    return _document(_table1_fleet(rng), scenario, cct=TABLE1_CCT)


WORKLOADS = ("wide_fleet", "cct_search")


def draw(workload: str, seed: int) -> list[list[str]]:
    """The YAML documents of one run: for each of its INPUTS_PER_RUN inputs,
    the candidates in the order they are tried."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cct_search":
        return [[cct_search(rng, depths) for _ in range(CCT_CANDIDATES)]
                for depths in CCT_DEPTH_RANGES]
    return [[wide_fleet(rng)] for _ in range(INPUTS_PER_RUN)]
