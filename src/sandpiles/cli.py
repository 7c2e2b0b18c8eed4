"""Command-line interface.

Each subcommand wraps one library capability: exact enumeration, chain
simulation, and the distribution-level experiments. Settings may come
from a JSON config file (--config) whose top level holds
{"lattice": {"dims": [...]}} plus scalar keys; explicit flags override
the file. Real-valued flags accept decimal literals or the token
"sqrt2-1". All randomness derives from --seed, outputs carry no
timestamps, and a rerun with identical arguments writes identical bytes.

Exit codes: 0 success (thresholds met), 1 a checked threshold failed,
2 configuration error, 3 capacity exceeded (a lattice too large for
recurrent enumeration or the subset scan).
"""

import argparse
from collections import Counter
import json
import math
import sys

import numpy as np

from . import btw, cbtw, measures, experiments
from .errors import CapacityError, DomainError, GeometryError
from .lattice import build_lattice, determinant_exact, toppling_matrix


class ConfigError(Exception):
    pass


CONFIG_KEYS = {"lattice", "a", "b", "steps", "samples", "bins", "seed", "init",
               "out", "format", "tolerance", "max_epochs", "k", "x", "N"}


def parse_real(value, what="value"):
    """Decimal literal, the token sqrt2-1, or a plain number; NaN and
    infinities are configuration errors."""
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
    return number


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


def parse_dims(value):
    return parse_int_list(value.replace("x", ",") if isinstance(value, str) else value,
                          "--dims")


def parse_real_list(value, what):
    if isinstance(value, (list, tuple)):
        return [parse_real(v, what) for v in value]
    return [parse_real(p, what) for p in str(value).split(",") if p.strip() != ""]


def load_config(path):
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
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return data


def require(value, what):
    if value is None:
        raise ConfigError(f"missing {what}")
    return value


def setting(args, config, key, default=None):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key == "dims":
        lattice = config.get("lattice")
        if lattice is None:
            return default
        if not isinstance(lattice, dict) or "dims" not in lattice:
            raise ConfigError('config "lattice" must be an object holding a "dims" list')
        return lattice["dims"]
    return config.get(key, default)


def number_setting(args, config, key, kind, default=None):
    """A setting read as `kind` (int or float). Booleans, NaN and
    fractional values of an integer setting are configuration errors."""
    value = require(setting(args, config, key, default), f"--{key}")
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        number = kind(value)
        if math.isnan(number):
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a real number"
        raise ConfigError(f"--{key}: expected {what}, got {value!r}") from None
    return number


def count_setting(args, config, key, default=None, least=0):
    """A nonnegative integer setting such as --steps, --samples or --seed,
    at least `least`."""
    count = number_setting(args, config, key, int, default)
    if count < 0:
        raise ConfigError(f"--{key} must be >= 0, got {count}")
    if count < least:
        raise ConfigError(f"--{key} must be at least {least}, got {count}")
    return count


def common_settings(args, need_dims=True):
    config = load_config(args.config) if getattr(args, "config", None) else {}
    dims_value = setting(args, config, "dims")
    if dims_value is None and need_dims:
        raise ConfigError("missing lattice dims: pass --dims or a config with lattice.dims")
    dims = parse_dims(dims_value) if dims_value is not None else None
    seed = count_setting(args, config, "seed", 0)
    out = setting(args, config, "out")
    fmt = setting(args, config, "format")
    if fmt is not None and fmt not in ("json", "csv"):
        raise ConfigError(f"--format must be json or csv, got {fmt!r}")
    return config, dims, seed, out, fmt


def spawn_rngs(seed, n):
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def build_initial(lat, spec, rng, recurrent=None):
    """Initial configuration from an init spec.

    Accepts "zero", "max", "mu" (a seeded uniform-allowed draw), an
    inline JSON object with "quanta" and "frac", or @path to such JSON.
    """
    if spec is None or spec == "zero":
        return cbtw.zero_config(lat)
    if spec == "max":
        return cbtw.max_config(lat)
    if spec == "mu":
        return measures.sample_uniform_allowed(lat, rng, recurrent)
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
    except (DomainError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad init configuration: {exc}") from None
    if cfg.n_sites != lat.n_sites:
        raise ConfigError(
            f"init configuration has {cfg.n_sites} sites, lattice has {lat.n_sites}")
    if not cfg.is_stable():
        raise ConfigError("init configuration must be stable (all masses below 1)")
    return cfg


def write_text(out, text):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dump_json(out, obj):
    write_text(out, json.dumps(obj, indent=2) + "\n")


def metadata_lines(pairs):
    return [f"# {key}={value}" for key, value in pairs]


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_enumerate(args):
    config, dims, seed, out, fmt = common_settings(args)
    lat = build_lattice(dims)
    recurrent = btw.enumerate_recurrent(lat)
    det_int = determinant_exact(toppling_matrix(lat, "integer"))
    det_cont = determinant_exact(toppling_matrix(lat, "continuous"))
    orders = [btw.addition_order(lat, x, recurrent) for x in range(lat.n_sites)]
    match = (len(recurrent) == det_int
             and det_int == det_cont * (2 * lat.d) ** lat.n_sites)
    if (fmt or "json") == "json":
        dump_json(out, {
            "command": "enumerate",
            "dims": dims,
            "n_sites": lat.n_sites,
            "n_recurrent": len(recurrent),
            "det_integer": int(det_int),
            "det_continuous": str(det_cont),
            "det_continuous_float": float(det_cont),
            "addition_orders": [int(v) for v in orders],
            "identity_match": bool(match),
        })
    else:
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
        lines.extend(",".join(str(int(v)) for v in row) for row in recurrent)
        write_text(out, "\n".join(lines) + "\n")
    if not match:
        print("error: recurrent count does not equal the exact determinant; "
              "this indicates an implementation bug", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args):
    config, dims, seed, out, fmt = common_settings(args)
    a = parse_real(require(setting(args, config, "a", None), "--a"), "--a")
    b_raw = setting(args, config, "b", None)
    b = a if b_raw is None else parse_real(b_raw, "--b")
    steps = count_setting(args, config, "steps")
    lat = build_lattice(dims)
    params = cbtw.AdditionParams(a, b)
    rng_init, rng_run = spawn_rngs(seed, 2)
    init_spec = setting(args, config, "init", "zero")
    initial = build_initial(lat, init_spec, rng_init)
    meta = [("command", "simulate"), ("dims", ",".join(map(str, dims))),
            ("a", repr(a)), ("b", repr(b)), ("mode", params.mode),
            ("steps", steps), ("seed", seed), ("init", init_spec)]
    m = lat.n_sites
    if (fmt or "csv") == "csv":
        lines = metadata_lines(meta)
        header = ["t", "site_added", "u"]
        header += [f"quanta_{i}" for i in range(m)]
        header += [f"frac_{i}" for i in range(m)]
        lines.append(",".join(header))

        # A step changes frac at x only, so each site keeps its repr.
        frac_text = [repr(v) for v in initial.frac.tolist()]

        def on_step(t, x, u, quanta, frac):
            frac_text[x] = repr(frac.item(x))
            lines.append(",".join([str(t), str(x), repr(u),
                                   *map(str, quanta.tolist()), *frac_text]))

        experiments.run_chain(lat, initial, params, steps, rng_run, on_step=on_step)
        write_text(out, "\n".join(lines) + "\n")
    else:
        trajectory, frac_now = [], initial.frac.tolist()

        def on_step(t, x, u, quanta, frac):
            frac_now[x] = frac.item(x)
            trajectory.append({"t": t, "site_added": x, "u": u,
                               "quanta": quanta.tolist(), "frac": frac_now.copy()})

        experiments.run_chain(lat, initial, params, steps, rng_run, on_step=on_step)
        dump_json(out, {"metadata": dict(meta), "trajectory": trajectory})
    return 0


def cmd_invariance(args):
    config, dims, seed, out, fmt = common_settings(args)
    samples = count_setting(args, config, "samples", 100000, least=1)
    bins = count_setting(args, config, "bins", 8)
    tolerance = number_setting(args, config, "tolerance", float, 0.01)
    lat = build_lattice(dims)
    (rng,) = spawn_rngs(seed, 1)
    result = experiments.invariance_experiment(lat, measures.Binning(bins), samples, rng)
    passed = result.tv <= result.noise_floor + tolerance
    dump_json(out, {
        "command": "invariance",
        "dims": dims, "samples": samples, "bins": bins, "seed": seed,
        "tv": result.tv, "noise_floor": result.noise_floor,
        "tolerance": tolerance, "pass": bool(passed),
    })
    return 0 if passed else 1


def cmd_couple(args):
    config, dims, seed, out, fmt = common_settings(args)
    a = parse_real(require(setting(args, config, "a", None), "--a"), "--a")
    b = parse_real(require(setting(args, config, "b", None), "--b"), "--b")
    if not a < b:
        raise ConfigError(f"coupling needs a < b, got a={a}, b={b}")
    max_epochs = count_setting(args, config, "max_epochs", 200000)
    lat = build_lattice(dims)
    params = cbtw.AdditionParams(a, b)
    rng_init, rng_other, rng_run = spawn_rngs(seed, 3)
    init_spec = setting(args, config, "init", "zero")
    recurrent = btw.enumerate_recurrent(lat)
    eta0 = build_initial(lat, init_spec, rng_init, recurrent)
    zeta0 = measures.sample_uniform_allowed(lat, rng_other, recurrent)
    result = experiments.run_coupling(lat, eta0, zeta0, params, rng_run,
                                      max_epochs=max_epochs)
    p = experiments.coupling_success_probability(lat, params)
    meta = [("command", "couple"), ("dims", ",".join(map(str, dims))),
            ("a", repr(a)), ("b", repr(b)), ("seed", seed),
            ("M", result.M), ("L", result.L), ("p_success", p),
            ("n_epochs", result.n_epochs), ("coalesced", result.coalesced)]
    if (fmt or "csv") == "csv":
        lines = metadata_lines(meta)
        lines.append("epoch,O_occurred,coalesced")
        lines.extend(f"{r.epoch},{int(r.o_occurred)},{int(r.coalesced)}"
                     for r in result.records)
        write_text(out, "\n".join(lines) + "\n")
    else:
        dump_json(out, {
            "metadata": {k: (str(v) if k == "p_success" else v) for k, v in meta},
            "epochs": [{"epoch": r.epoch, "O_occurred": r.o_occurred,
                        "coalesced": r.coalesced} for r in result.records],
        })
    return 0 if result.coalesced else 1


def cmd_limit_rational(args):
    config, dims, seed, out, fmt = common_settings(args)
    a = parse_real(require(setting(args, config, "a", None), "--a"), "--a")
    steps = count_setting(args, config, "steps", 2000)
    samples = count_setting(args, config, "samples", 20000, least=1)
    bins = count_setting(args, config, "bins", 8)
    tolerance = number_setting(args, config, "tolerance", float, 0.02)
    lat = build_lattice(dims)
    l = cbtw.quantum_multiple(a, lat.d)
    if l is None or not 1 <= l <= 2 * lat.d - 1:
        raise ConfigError(
            f"--a must be a quantum multiple l/{2*lat.d} with 0 < l < {2*lat.d}, got {a}")
    rng_init, rng_run = spawn_rngs(seed, 2)
    init_spec = setting(args, config, "init", "zero")
    base = build_initial(lat, init_spec, rng_init)
    result = experiments.rational_limit_test(
        lat, base, a, steps, samples, rng_run, binning=measures.Binning(bins))
    passed = result.tv <= result.noise_floor + tolerance
    dump_json(out, {
        "command": "limit-rational",
        "dims": dims, "a": a, "quantum_multiple": l, "steps": steps,
        "samples": samples, "bins": bins, "seed": seed,
        "tv": result.tv, "noise_floor": result.noise_floor,
        "tolerance": tolerance, "pass": bool(passed),
    })
    return 0 if passed else 1


def cmd_fourier(args):
    config, dims, seed, out, fmt = common_settings(args, need_dims=False)
    a = parse_real(require(setting(args, config, "a", None), "--a"), "--a")
    k = parse_int_list(setting(args, config, "k", "1"), "--k")
    x_raw = setting(args, config, "x", None)
    x = [0.0] * len(k) if x_raw is None else parse_real_list(x_raw, "--x")
    if len(x) != len(k):
        raise ConfigError(f"--x has {len(x)} coordinates but --k has {len(k)}")
    n_terms = number_setting(args, config, "N", int, 100)
    samples = count_setting(args, config, "samples", 200000, least=2)
    if n_terms < 1:
        raise ConfigError("--N must be >= 1")
    (rng,) = spawn_rngs(seed, 1)
    exact = experiments.translation_mixture_fourier(a, k, x, n_terms)
    mc, se = experiments.translation_mixture_fourier_mc(a, k, x, n_terms, samples, rng)
    bound = experiments.translation_mixture_bound(a, k, n_terms)
    diff = abs(exact - mc)
    passed = diff <= 4.0 * se
    dump_json(out, {
        "command": "fourier",
        "a": a, "k": k, "x": x, "N": n_terms, "samples": samples, "seed": seed,
        "exact": {"re": exact.real, "im": exact.imag},
        "monte_carlo": {"re": mc.real, "im": mc.imag},
        "stderr": se, "abs_difference": diff,
        "modulus_bound": (None if math.isinf(bound) else bound),
        "pass": bool(passed),
    })
    return 0 if passed else 1


def cmd_ergodic(args):
    config, dims, seed, out, fmt = common_settings(args)
    a = parse_real(require(setting(args, config, "a", None), "--a"), "--a")
    steps = count_setting(args, config, "steps", 100000)
    tolerance = number_setting(args, config, "tolerance", float, 0.02)
    if steps < 1:
        raise ConfigError(f"--steps must be >= 1 for a time average, got {steps}")
    lat = build_lattice(dims)
    if not 0.0 <= a < 1.0:
        raise ConfigError(f"--a must lie in [0, 1), got {a}")
    rng_init, rng_run = spawn_rngs(seed, 2)
    init_spec = setting(args, config, "init", "zero")
    initial = build_initial(lat, init_spec, rng_init)
    recurrent = btw.enumerate_recurrent(lat)
    visits = Counter()

    def on_step(t, x, u, quanta, frac):
        visits[quanta.tobytes()] += 1

    experiments.run_chain(lat, initial, cbtw.AdditionParams(a, a), steps, rng_run, on_step)
    # Counts are exact, so count / steps equals the time average of 0/1 indicators.
    freqs = [visits[row.tobytes()] / steps for row in recurrent]
    expected = 1.0 / len(recurrent)
    max_dev = max(abs(f - expected) for f in freqs)
    passed = max_dev <= tolerance
    dump_json(out, {
        "command": "ergodic",
        "dims": dims, "a": a, "steps": steps, "seed": seed,
        "cells": [{"quanta": row, "frequency": f}
                  for row, f in zip(recurrent.tolist(), freqs)],
        "expected_frequency": expected,
        "max_abs_deviation": max_dev,
        "tolerance": tolerance, "pass": bool(passed),
    })
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Integer and continuous sandpile experiments on finite lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, dims=True):
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        if dims:
            sp.add_argument("--dims", help="box side lengths, e.g. 2,2")
        sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
        sp.add_argument("--out", help="output file (stdout if omitted)")
        sp.add_argument("--format", choices=("json", "csv"))

    sp = sub.add_parser("enumerate",
                        help="recurrent configurations, exact determinants, addition orders")
    add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("simulate", help="run the randomized-addition chain, write the trajectory")
    add_common(sp)
    sp.add_argument("--a", help="fixed amount, or interval lower end")
    sp.add_argument("--b", help="interval upper end (omit for fixed amount)")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--init", help="zero | max | mu | inline JSON | @path")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("invariance",
                        help="push one random addition through uniform-allowed samples, compare laws")
    add_common(sp)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--bins", type=int)
    sp.add_argument("--tolerance", type=float)
    sp.set_defaults(func=cmd_invariance)

    sp = sub.add_parser("couple", help="couple two chains until they coalesce")
    add_common(sp)
    sp.add_argument("--a", help="interval lower end")
    sp.add_argument("--b", help="interval upper end (must exceed --a)")
    sp.add_argument("--init", help="initial configuration of the first chain")
    sp.add_argument("--max-epochs", dest="max_epochs", type=int)
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("limit-rational",
                        help="fixed quantum-multiple amount: chain law vs predicted limit")
    add_common(sp)
    sp.add_argument("--a", help="fixed amount, must be l/2d")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--bins", type=int)
    sp.add_argument("--init", help="base configuration (default zero)")
    sp.add_argument("--tolerance", type=float)
    sp.set_defaults(func=cmd_limit_rational)

    sp = sub.add_parser("fourier",
                        help="random-translate mixture: closed-form coefficient vs Monte Carlo")
    add_common(sp, dims=False)
    sp.add_argument("--a", help="translation step")
    sp.add_argument("--k", help="integer frequency vector, e.g. 1,-2")
    sp.add_argument("--x", help="start point coordinates (default zeros)")
    sp.add_argument("--N", type=int, help="mixture length (uniform over 0..N-1 translates)")
    sp.add_argument("--samples", type=int)
    sp.set_defaults(func=cmd_fourier)

    sp = sub.add_parser("ergodic",
                        help="fixed-amount chain: time fraction per quanta cell vs uniform")
    add_common(sp)
    sp.add_argument("--a", help="fixed amount (token sqrt2-1 for the irrational default)")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--init", help="initial configuration (default zero)")
    sp.add_argument("--tolerance", type=float)
    sp.set_defaults(func=cmd_ergodic)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (ConfigError, GeometryError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
