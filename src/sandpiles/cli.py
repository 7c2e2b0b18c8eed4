"""Command-line interface.

Each subcommand wraps one library capability: exact enumeration, chain
simulation, and the distribution-level experiments. COMMANDS declares
every setting of every subcommand once, with its reader and default.
A setting comes from its flag, else from the JSON config file given by
--config (its top level holds {"lattice": {"dims": [...]}} plus the
other settings by name; null counts as unset), else from the default,
and one reader checks and parses it wherever it came from. A config key
that the subcommand does not take is a configuration error. Real-valued
settings accept decimal literals or the token "sqrt2-1". All randomness
derives from --seed, outputs carry no timestamps, and a rerun with
identical arguments writes identical bytes.

One runner, `main`, reads the settings, builds the lattice of --dims,
spawns three generators from --seed, calls the command, writes the report
it returns once (to --out, else stdout) and maps its verdict to the exit
code. rngs[0] draws the initial state (or is the only generator), rngs[1]
runs the chain or draws couple's second start, and rngs[2] runs couple.

Exit codes: 0 success (thresholds met), 1 a checked threshold failed,
2 configuration error, 3 capacity exceeded (a lattice too large for
recurrent enumeration).
"""

import argparse
from collections import Counter
from functools import partial
import json
import math
import sys

import numpy as np

from . import btw, cbtw, measures, experiments
from .errors import CapacityError, DomainError, GeometryError
from .lattice import build_lattice, determinant_exact, toppling_matrix


class ConfigError(Exception):
    pass


def parse_real(value, what="value", least=None):
    """Decimal literal, the token sqrt2-1, or a plain number, at least
    `least` when given; NaN and infinities are configuration errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{what}: expected a real number, got {value!r}")
    if isinstance(value, str) and value.strip() == "sqrt2-1":
        return math.sqrt(2.0) - 1.0
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(
            f"{what}: expected a finite decimal or the token 'sqrt2-1', got {value!r}")
    if least is not None and number < least:
        raise ConfigError(f"{what} must be at least {least}, got {number}")
    return number


def parse_count(value, what, least=0):
    """A nonnegative integer, at least `least`, from an integer, an
    integral float or a decimal string. Booleans and fractions are errors."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what}: expected an integer, got {value!r}") from None
    if count < 0:
        raise ConfigError(f"{what} must be >= 0, got {count}")
    if count < least:
        raise ConfigError(f"{what} must be at least {least}, got {count}")
    return count


def parse_text(value, what, allowed=None):
    """A string, one of `allowed` when given."""
    if not isinstance(value, str) or (allowed and value not in allowed):
        expected = " or ".join(allowed) if allowed else "a string"
        raise ConfigError(f"{what}: expected {expected}, got {value!r}")
    return value


def parse_int_list(value, what):
    """A non-empty integer list from a JSON list or a comma-separated
    string. Booleans, fractional numbers and other types are errors."""
    items = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
    try:
        if not isinstance(items, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, (int, str)) for v in items):
            raise ValueError(value)
        ints = [int(v) for v in items]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers, got {value!r}") from None
    if not ints:
        raise ConfigError(f"{what}: expected at least one integer, got {value!r}")
    return ints


def parse_dims(value, what="--dims"):
    return parse_int_list(value.replace("x", ",") if isinstance(value, str) else value, what)


def parse_real_list(value, what):
    if isinstance(value, (list, tuple)):
        return [parse_real(v, what) for v in value]
    return [parse_real(p, what) for p in str(value).split(",") if p.strip() != ""]


def load_config(path):
    """The settings of a JSON config file by key, with lattice.dims as
    the value of "lattice"."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    lattice = data.get("lattice")
    if lattice is not None:
        if not isinstance(lattice, dict) or "dims" not in lattice:
            raise ConfigError('config "lattice" must be an object holding a "dims" list')
        data["lattice"] = lattice["dims"]
    return data


def read_settings(args, spec):
    """Resolve every key of `spec` on `args` in place: the flag, else the
    config value, else the default; then run the key's reader on it. A
    config key that is not in `spec` is a configuration error."""
    config = load_config(args.config) if args.config else {}
    for key, (reader, default) in spec.items():
        flag = "--" + key.replace("_", "-")
        value = getattr(args, key)
        stored = config.pop("lattice" if key == "dims" else key, None)
        if value is None:
            value = stored
        if value is None:
            value = default
        if value is REQUIRED:
            raise ConfigError("missing lattice dims: pass --dims or a config with lattice.dims"
                              if key == "dims" else f"missing {flag}")
        if value is not None and reader is not None:
            value = reader(value, flag)
        setattr(args, key, value)
    if config:
        raise ConfigError(f"{args.config}: unknown config keys: {', '.join(sorted(config))}")
    return args


def spawn_rngs(seed, n):
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def build_initial(lat, spec, rng):
    """Initial configuration from an init spec.

    Accepts "zero", "max", "mu" (a seeded uniform-allowed draw), an
    inline JSON object with "quanta" and "frac", or @path to such JSON.
    """
    if spec is None or spec == "zero":
        return cbtw.zero_config(lat)
    if spec == "max":
        return cbtw.max_config(lat)
    if spec == "mu":
        return measures.sample_uniform_allowed(lat, rng)
    if isinstance(spec, dict):
        text = json.dumps(spec)
    elif isinstance(spec, str) and spec.startswith("@"):
        try:
            with open(spec[1:]) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"init file not found: {spec[1:]}") from None
    elif isinstance(spec, str) and spec.lstrip().startswith("{"):
        text = spec
    else:
        raise ConfigError(
            f"--init must be zero, max, mu, inline JSON or @path, got {spec!r}")
    try:
        cfg = cbtw.CbtwConfig.from_json(lat.d, text)
        cbtw._check_config(lat, cfg)
    except (DomainError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad init configuration: {exc}") from None
    if not cfg.is_stable():
        raise ConfigError("init configuration must be stable (all masses below 1)")
    return cfg


def metadata_lines(pairs):
    return [f"# {key}={value}" for key, value in pairs]


# ---------------------------------------------------------------------------
# Subcommands. Each takes the resolved settings, the lattice of --dims (None
# for fourier) and the three generators, and returns (report, passed): a
# dict written as indented JSON or a list of lines, and whether it passed.

def cmd_enumerate(args, lat, rngs):
    dims = args.dims
    recurrent = lat.recurrent
    det_int = determinant_exact(toppling_matrix(lat, "integer"))
    det_cont = determinant_exact(toppling_matrix(lat, "continuous"))
    orders = [btw.addition_order(lat, x) for x in range(lat.n_sites)]
    match = (len(recurrent) == det_int
             and det_int == det_cont * (2 * lat.d) ** lat.n_sites)
    if not match:
        print("error: recurrent count does not equal the exact determinant; "
              "this indicates an implementation bug", file=sys.stderr)
    if args.format == "json":
        return {
            "command": "enumerate", "dims": dims, "n_sites": lat.n_sites,
            "n_recurrent": len(recurrent), "det_integer": int(det_int),
            "det_continuous": str(det_cont), "det_continuous_float": float(det_cont),
            "addition_orders": [int(v) for v in orders], "identity_match": bool(match),
        }, match
    lines = metadata_lines([
        ("command", "enumerate"),
        ("dims", ",".join(map(str, dims))),
        ("n_recurrent", len(recurrent)),
        ("det_integer", int(det_int)),
        ("det_continuous", det_cont),
        ("addition_orders", ",".join(str(int(v)) for v in orders)),
        ("identity_match", bool(match)),
    ])
    lines.append(",".join(f"q{i}" for i in range(lat.n_sites)))
    lines.extend(",".join(map(str, row)) for row in recurrent.tolist())
    return lines, match


def cmd_simulate(args, lat, rngs):
    a, steps = args.a, args.steps
    b = a if args.b is None else args.b
    params = cbtw.AdditionParams(a, b)
    initial = build_initial(lat, args.init, rngs[0])
    meta = [("command", "simulate"), ("dims", ",".join(map(str, args.dims))),
            ("a", repr(a)), ("b", repr(b)), ("mode", params.mode),
            ("steps", steps), ("seed", args.seed), ("init", args.init)]
    m = lat.n_sites
    if args.format == "csv":
        report = metadata_lines(meta)
        header = ["t", "site_added", "u"]
        header += [f"quanta_{i}" for i in range(m)]
        header += [f"frac_{i}" for i in range(m)]
        report.append(",".join(header))

        # A step changes frac at x only, so each site keeps its repr.
        frac_text = [repr(v) for v in initial.frac.tolist()]

        def on_step(t, x, u, quanta, frac):
            frac_text[x] = repr(frac.item(x))
            report.append(",".join([str(t), str(x), repr(u),
                                    *map(str, quanta.tolist()), *frac_text]))
    else:
        trajectory, frac_now = [], initial.frac.tolist()
        report = {"metadata": dict(meta), "trajectory": trajectory}

        def on_step(t, x, u, quanta, frac):
            frac_now[x] = frac.item(x)
            trajectory.append({"t": t, "site_added": x, "u": u,
                               "quanta": quanta.tolist(), "frac": frac_now.copy()})

    experiments.run_chain(lat, initial, params, steps, rngs[1], on_step=on_step)
    return report, True


def cmd_invariance(args, lat, rngs):
    result = experiments.invariance_experiment(lat, measures.Binning(args.bins),
                                               args.samples, rngs[0])
    passed = result.tv <= result.noise_floor + args.tolerance
    return {
        "command": "invariance",
        "dims": args.dims, "samples": args.samples, "bins": args.bins, "seed": args.seed,
        "tv": result.tv, "noise_floor": result.noise_floor,
        "tolerance": args.tolerance, "pass": bool(passed),
    }, passed


def cmd_couple(args, lat, rngs):
    a, b = args.a, args.b
    if not a < b:
        raise ConfigError(f"coupling needs a < b, got a={a}, b={b}")
    params = cbtw.AdditionParams(a, b)
    eta0 = build_initial(lat, args.init, rngs[0])
    zeta0 = measures.sample_uniform_allowed(lat, rngs[1])
    result = experiments.run_coupling(lat, eta0, zeta0, params, rngs[2],
                                      max_epochs=args.max_epochs)
    p = experiments.coupling_success_probability(lat, params)
    meta = [("command", "couple"), ("dims", ",".join(map(str, args.dims))),
            ("a", repr(a)), ("b", repr(b)), ("seed", args.seed),
            ("M", result.M), ("L", result.L), ("p_success", p),
            ("n_epochs", result.n_epochs), ("coalesced", result.coalesced)]
    if args.format == "csv":
        lines = metadata_lines(meta)
        lines.append("epoch,O_occurred,coalesced")
        lines.extend(f"{r.epoch},{int(r.o_occurred)},{int(r.coalesced)}"
                     for r in result.records)
        return lines, result.coalesced
    return {
        "metadata": {k: (str(v) if k == "p_success" else v) for k, v in meta},
        "epochs": [{"epoch": r.epoch, "O_occurred": r.o_occurred,
                    "coalesced": r.coalesced} for r in result.records],
    }, result.coalesced


def cmd_limit_rational(args, lat, rngs):
    a = args.a
    l = cbtw.quantum_multiple(a, lat.d)
    if l is None or not 1 <= l <= 2 * lat.d - 1:
        raise ConfigError(
            f"--a must be a quantum multiple l/{2*lat.d} with 0 < l < {2*lat.d}, got {a}")
    base = build_initial(lat, args.init, rngs[0])
    result = experiments.rational_limit_test(
        lat, base, a, args.steps, args.samples, rngs[1], binning=measures.Binning(args.bins))
    passed = result.tv <= result.noise_floor + args.tolerance
    return {
        "command": "limit-rational",
        "dims": args.dims, "a": a, "quantum_multiple": l, "steps": args.steps,
        "samples": args.samples, "bins": args.bins, "seed": args.seed,
        "tv": result.tv, "noise_floor": result.noise_floor,
        "tolerance": args.tolerance, "pass": bool(passed),
    }, passed


def cmd_fourier(args, lat, rngs):
    a, k, n_terms = args.a, args.k, args.N
    x = [0.0] * len(k) if args.x is None else args.x
    if len(x) != len(k):
        raise ConfigError(f"--x has {len(x)} coordinates but --k has {len(k)}")
    exact = experiments.translation_mixture_fourier(a, k, x, n_terms)
    mc, se = experiments.translation_mixture_fourier_mc(a, k, x, n_terms, args.samples,
                                                        rngs[0])
    bound = experiments.translation_mixture_bound(a, k, n_terms)
    diff = abs(exact - mc)
    passed = diff <= 4.0 * se
    return {
        "command": "fourier",
        "a": a, "k": k, "x": x, "N": n_terms, "samples": args.samples, "seed": args.seed,
        "exact": {"re": exact.real, "im": exact.imag},
        "monte_carlo": {"re": mc.real, "im": mc.imag},
        "stderr": se, "abs_difference": diff,
        "modulus_bound": (None if math.isinf(bound) else bound),
        "pass": bool(passed),
    }, passed


def cmd_ergodic(args, lat, rngs):
    a, steps = args.a, args.steps
    if not 0.0 <= a < 1.0:
        raise ConfigError(f"--a must lie in [0, 1), got {a}")
    initial = build_initial(lat, args.init, rngs[0])
    recurrent = lat.recurrent
    visits = Counter()

    def on_step(t, x, u, quanta, frac):
        visits[quanta.tobytes()] += 1

    experiments.run_chain(lat, initial, cbtw.AdditionParams(a, a), steps, rngs[1], on_step)
    # Counts are exact, so count / steps equals the time average of 0/1 indicators.
    freqs = [visits[row.tobytes()] / steps for row in recurrent]
    expected = 1.0 / len(recurrent)
    max_dev = max(abs(f - expected) for f in freqs)
    passed = max_dev <= args.tolerance
    return {
        "command": "ergodic",
        "dims": args.dims, "a": a, "steps": steps, "seed": args.seed,
        "cells": [{"quanta": row, "frequency": f}
                  for row, f in zip(recurrent.tolist(), freqs)],
        "expected_frequency": expected,
        "max_abs_deviation": max_dev,
        "tolerance": args.tolerance, "pass": bool(passed),
    }, passed


# ---------------------------------------------------------------------------
# The settings table: command -> (function, help, {key: (reader, default)}).
# A reader of None passes the value on as given; REQUIRED has no default.

REQUIRED = object()
FORMAT = partial(parse_text, allowed=("json", "csv"))
POSITIVE = partial(parse_count, least=1)
TOLERANCE = partial(parse_real, least=0)
AMOUNT = (parse_real, REQUIRED)
INIT = (None, "zero")
COMMON = {"seed": (parse_count, 0), "out": (parse_text, None)}
BOX = {"dims": (parse_dims, REQUIRED), **COMMON}
CSV = {**BOX, "format": (FORMAT, "csv")}

COMMANDS = {
    "enumerate": (cmd_enumerate,
                  "recurrent configurations, exact determinants, addition orders",
                  {**BOX, "format": (FORMAT, "json")}),
    "simulate": (cmd_simulate, "run the randomized-addition chain, write the trajectory",
                 {**CSV, "a": AMOUNT, "b": (parse_real, None),
                  "steps": (parse_count, REQUIRED), "init": INIT}),
    "invariance": (cmd_invariance,
                   "push one random addition through uniform-allowed samples, compare laws",
                   {**BOX, "samples": (POSITIVE, 100000), "bins": (POSITIVE, 8),
                    "tolerance": (TOLERANCE, 0.01)}),
    "couple": (cmd_couple, "couple two chains until they coalesce",
               {**CSV, "a": AMOUNT, "b": AMOUNT, "init": INIT,
                "max_epochs": (POSITIVE, 200000)}),
    "limit-rational": (cmd_limit_rational,
                       "fixed quantum-multiple amount: chain law vs predicted limit",
                       {**BOX, "a": AMOUNT, "steps": (parse_count, 2000),
                        "samples": (POSITIVE, 20000), "bins": (POSITIVE, 8), "init": INIT,
                        "tolerance": (TOLERANCE, 0.02)}),
    "fourier": (cmd_fourier, "random-translate mixture: closed-form coefficient vs Monte Carlo",
                {**COMMON, "a": AMOUNT, "k": (parse_int_list, "1"),
                 "x": (parse_real_list, None), "N": (POSITIVE, 100),
                 "samples": (partial(parse_count, least=2), 200000)}),
    "ergodic": (cmd_ergodic, "fixed-amount chain: time fraction per quanta cell vs uniform",
                {**BOX, "a": AMOUNT, "steps": (POSITIVE, 100000), "init": INIT,
                 "tolerance": (TOLERANCE, 0.02)}),
}

HELP = {
    "dims": "box side lengths, e.g. 2,2 (config: lattice.dims)",
    "seed": "RNG seed",
    "out": "output file (stdout if omitted)",
    "format": "json or csv",
    "a": "amount a, or interval lower end: a decimal or sqrt2-1",
    "b": "interval upper end (simulate: omit for the fixed amount a)",
    "steps": "chain steps",
    "samples": "sample size",
    "bins": "fractional-part bins per site",
    "tolerance": "allowed deviation, a real number >= 0",
    "init": "zero | max | mu | inline JSON | @path",
    "max_epochs": "epochs to run before giving up",
    "k": "integer frequency vector, e.g. 1,-2",
    "x": "start point coordinates (default zeros)",
    "N": "mixture length (uniform over 0..N-1 translates)",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Integer and continuous sandpile experiments on finite lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, spec) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, (_, default) in spec.items():
            note = ("" if default is None else " (required)" if default is REQUIRED
                    else f" (default {default})")
            sp.add_argument("--" + key.replace("_", "-"), help=HELP[key] + note)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    func, _, spec = COMMANDS[args.command]
    try:
        read_settings(args, spec)
        lat = build_lattice(args.dims) if "dims" in spec else None
        report, passed = func(args, lat, spawn_rngs(args.seed, 3))
    except (ConfigError, GeometryError, DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2
    text = (json.dumps(report, indent=2) if isinstance(report, dict) else "\n".join(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
