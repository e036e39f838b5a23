"""Command-line front end: JSON spec in, JSON or CSV out.

Subcommands expose each pipeline: win-prob, absorb-dist, pgf, simulate, and
verify. Exit codes: 0 all good, 1 a verification check failed, 2 invalid
input. All numeric JSON output round-trips at full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .absorption import absorb_dist
from .errors import CouplingError, HorizonError, SpecError
from .game import (
    build_game,
    check_triplets,
    lattice_point_mass,
    linear_index,
    state_labels,
)
from .linalg import check_lu_size
from .pgf import ResolventPgf
from .siegmund import win_prob_product, win_prob_solve
from .specfile import SpecFileError, check_count, check_eps, load_spec
from .simulate import SimConfig, simulate, simulate_coupled
from .verify import run_checks


def _fail(message: str, field: str | None = None) -> int:
    body = {"error": message}
    if field:
        body["field"] = field
    print(json.dumps(body), file=sys.stderr)
    return 2


def _dumps(out: dict) -> str:
    """``json.dumps(out, indent=2)``, byte for byte, with the C encoder.

    ``out`` is a dict of JSON scalars and flat numeric containers: lists,
    and dicts of string keys that hold no ", ", whose items are numbers
    (NaN and the infinities included), bools or None. Only ``json.dumps``
    without an indent runs the C encoder, so each value is encoded that
    way, and a container's ", " item separators become its indented line
    breaks.
    """
    items = []
    for key, value in out.items():
        text = json.dumps(value)
        if isinstance(value, (list, dict)) and value:
            text = (text[0] + "\n    " + text[1:-1].replace(", ", ",\n    ")
                    + "\n  " + text[-1])
        items.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}" if items else "{}"


def _flag_list(arg: str, flag: str, kind) -> tuple:
    try:
        return tuple(kind(c) for c in arg.split(","))
    except ValueError:
        raise SpecFileError(flag, f"expected {kind.__name__}s, got {arg!r}")


def _parse_start(arg: str | None, parsed):
    if arg is None:
        return parsed.start
    coords = _flag_list(arg, "--start", int)
    shape = parsed.game.shape
    try:
        linear_index(shape, coords)
    except IndexError:
        raise SpecFileError("--start", f"{arg!r} is off the lattice {shape}")
    return coords


def _build_for_lu(game):
    """``build_game`` for a command that factors the game's sparse LU; a game
    past the triplet cap or, after it, the LU's size cap is refused unbuilt."""
    check_triplets([s.band for s in game.dims], game.subsets)
    check_lu_size(game.shape)
    return build_game(game)


def cmd_win_prob(args) -> int:
    parsed = load_spec(args.spec)
    game = parsed.game
    chain = _build_for_lu(game)
    rho_prod = win_prob_product(game)
    rho_solve = win_prob_solve(chain)
    keys = state_labels(game.shape)
    out = {
        "rho": dict(zip(keys, rho_prod.tolist())),
        "rho_solve": dict(zip(keys, rho_solve.tolist())),
        "method_agreement": float(np.max(np.abs(rho_prod - rho_solve))),
    }
    print(_dumps(out))
    return 0


def cmd_absorb_dist(args) -> int:
    parsed = load_spec(args.spec)
    game = parsed.game
    start = _parse_start(args.start, parsed)
    chain = _build_for_lu(game)
    target = "win" if args.target == "win" else "ruin"
    nu = lattice_point_mass(game.shape, start)
    horizon = (parsed.horizon if args.horizon is None
               else check_count(args.horizon, "--horizon", 0))
    eps = parsed.eps if args.eps is None else check_eps(args.eps, "--eps")
    dist = absorb_dist(chain, nu, target=target, horizon=horizon, eps=eps)
    lines = ["t,pmf,cdf"]
    cdf = 0.0
    for t, mass in enumerate(dist.pmf.tolist()):
        cdf += mass
        lines.append(f"{t},{mass!r},{cdf!r}")
    if dist.tail > eps:
        lines.append(f"# tail,{float(dist.tail)!r}")
    print("\n".join(lines))
    return 0


def cmd_pgf(args) -> int:
    parsed = load_spec(args.spec)
    game = parsed.game
    start = _parse_start(args.start, parsed)
    # a repeated point is printed once, so it is solved once
    points = {repr(s): s for s in _flag_list(args.eval, "--eval", float)}
    pgf = ResolventPgf(_build_for_lu(game), lattice_point_mass(game.shape, start))
    values = {key: pgf.evaluate(s) for key, s in points.items()}
    rho = float(win_prob_product(game)[linear_index(game.shape, start)])
    print(_dumps({"values": values, "rho_at_1": rho}))
    return 0


def cmd_simulate(args) -> int:
    parsed = load_spec(args.spec)
    game = parsed.game
    start = _parse_start(args.start, parsed)
    runs = (parsed.runs if args.runs is None
            else check_count(args.runs, "--runs", 1))
    seed = (parsed.seed if args.seed is None
            else check_count(args.seed, "--seed", 0))
    cfg = SimConfig(runs=runs, seed=seed)
    if args.coupled:
        nu = lattice_point_mass(game.shape, start)
        report = simulate_coupled(game, nu, cfg)
    else:
        chain = build_game(game)
        report = simulate(chain, start, cfg)
    print(_dumps(report.as_dict()))
    return 0


def cmd_verify(args) -> int:
    parsed = load_spec(args.spec)
    checks = run_checks(parsed.game, start=parsed.start, eps=parsed.eps)
    print(json.dumps({"checks": [c.as_dict() for c in checks]}, indent=2))
    return 0 if all(c.passed for c in checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krongambler",
        description="Multidimensional gambler's-ruin games via Kronecker mixing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("win-prob", help="winning probabilities, two methods")
    p.add_argument("spec")
    p.set_defaults(func=cmd_win_prob)

    p = sub.add_parser("absorb-dist", help="absorption-time pmf as CSV")
    p.add_argument("spec")
    p.add_argument("--start")
    p.add_argument("--target", choices=["win", "lose"], default="win")
    p.add_argument("--horizon", type=int)
    p.add_argument("--eps", type=float)
    p.set_defaults(func=cmd_absorb_dist)

    p = sub.add_parser("pgf", help="evaluate the absorption-time pgf")
    p.add_argument("spec")
    p.add_argument("--start")
    p.add_argument("--eval", default="1",
                   help="comma-separated evaluation points")
    p.set_defaults(func=cmd_pgf)

    p = sub.add_parser("simulate", help="Monte Carlo estimate")
    p.add_argument("spec")
    p.add_argument("--start")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--coupled", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the full identity suite")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        return _fail(str(exc), getattr(exc, "field", None))
    except (ValueError, CouplingError, HorizonError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
