"""Command-line front end.

Verbs: derive, gauge, check, simulate, picard, norms, resonance, export.
Every run echoes its fully resolved configuration as a JSON line and writes
its artifacts under --out (default ./out).  Exit status: 0 on success, 1 on
verification failure, 2 on usage errors (``_FAILURES`` maps library errors
to them).  Identical argv (and seed) produce byte-identical artifacts.

A JSON config file (--config) may supply any option of the verb under the
key the echo uses for it (``--N-list`` is ``n_list``).  Its values enter as
flags right after the verb, so one parse checks each option's type, range,
choices and ``required`` alike for both, and explicit flags win.  The echo
without its ``verb``, used as a config, reruns the same run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import GaussianRational, serialize_poly
from .analysis import (
    FitDegenerate,
    NormSpec,
    ResolutionError,
    gauge_lipschitz_probe,
    growth_exponent_fit,
    resonance_ratio_stats,
)
from .gauge import ResidualBadCubic, derive_gauged, is_gauged_form
from .hierarchy import (
    PropertyViolation,
    build_hierarchy_equation,
    check_Y_properties,
    verify_bad_cubics,
)
from .reference import (
    REFERENCE_GAUGED_RANGE,
    REFERENCE_HIERARCHY_RANGE,
    compare_gauged_equation,
    compare_hierarchy_equation,
)
from .spectral import (
    BlowupDetected,
    ConfigError,
    Grid,
    SimConfig,
    compile_evaluator,
    gaussian_bump,
    plane_wave_nonlinearity,
    plane_wave_reference,
    read_snapshot,
    simulate,
    write_snapshot,
)

_RATIONAL = r"\d+(?:/\d+)?"
# An optional real part, followed by the end or a sign, then an optional
# imaginary part whose coefficient may be a bare sign or nothing (1).
_GAUSSIAN_RE = re.compile(
    rf"(?=.)(?P<re>[+-]?{_RATIONAL}(?=[+-]|$))?(?:(?P<im>[+-]?(?:{_RATIONAL})?)i)?$"
)


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse 'a/b+c/d i' style exact complex values (also '2', 'i', '-1/2i')."""
    m = _GAUSSIAN_RE.match(text.replace(" ", ""))
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse Gaussian rational {text!r}")
    im = {None: "0", "": "1", "+": "1", "-": "-1"}.get(m["im"], m["im"])
    try:
        return GaussianRational(Fraction(m["re"] or 0), Fraction(im))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _comma_list(pattern: str, what: str):
    """An option type: comma-separated integers matching ``pattern``; 'mass' is -1."""
    def parse(text: str) -> tuple[int, ...]:
        toks = [tok.strip() for tok in text.split(",") if tok.strip()]
        for tok in toks:
            if not re.fullmatch(pattern, tok):
                raise argparse.ArgumentTypeError(f"{what}, not {tok!r}")
        return tuple(-1 if tok == "mass" else int(tok) for tok in toks)
    return parse


def _complex_text(text: str) -> str:
    """``--pw-a``: checked as a complex literal, kept as text so the echo is JSON."""
    try:
        complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    return text


def _alpha_text(text: str) -> str:
    """``--alpha``: a nonzero Gaussian rational, kept as text so the echo is JSON."""
    if not parse_gaussian_rational(text):
        raise argparse.ArgumentTypeError(f"must be nonzero, not {text!r}")
    return text


def _number(kind, ok, what: str):
    """An option type: ``kind(text)``, a usage error unless ``ok`` holds for it."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
    return parse


def _int_at_least(minimum: int):
    return _number(int, lambda v: v >= minimum, f"an integer >= {minimum}")


def _json(payload, indent=None) -> str:
    """Strict JSON (RFC 8259), keys sorted; a non-finite float is its repr ("inf", "nan")."""
    def strict(v):
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return repr(float(v)) if isinstance(v, float) and not np.isfinite(v) else v
    return json.dumps(strict(payload), sort_keys=True, indent=indent, allow_nan=False)


def _echo(args) -> dict:
    """Print the run's configuration, every parsed option as the verb resolved
    it, under its config key, as one JSON line, and return it."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    print(_json({"config": config}))
    return config


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror}") from None
    return out


def _write_json(path: Path, payload: dict):
    path.write_text(_json(payload, indent=2) + "\n")


def _usage_error(message: str):
    """Report a usage error on stderr and exit with status 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# derive / gauge / export
# ---------------------------------------------------------------------------

def _equation_artifacts(prefix: str, eq, fmt: str, out: Path) -> Path:
    if fmt == "latex":
        path = out / f"{prefix}.tex"
        path.write_text(eq.latex() + "\n")
    elif fmt == "json":
        path = out / f"{prefix}.json"
        _write_json(path, eq.to_json())
    else:
        path = out / f"{prefix}.txt"
        path.write_text(serialize_poly(eq.nonlinearity) + "\n")
    return path


def cmd_derive(args) -> int:
    if args.alpha is None:
        args.alpha = str(2 ** args.n)
    _echo(args)
    eq = build_hierarchy_equation(args.n, parse_gaussian_rational(args.alpha))
    path = _equation_artifacts(f"derive_n{args.n}", eq, args.format, _outdir(args))
    print(f"wrote {path}")
    print(eq.latex() if args.format == "latex" else serialize_poly(eq.nonlinearity))
    return 0


def cmd_gauge(args) -> int:
    _echo(args)
    gd = derive_gauged(build_hierarchy_equation(2 * args.j - 1))
    out = _outdir(args)
    if args.format == "json":
        path = out / f"gauge_j{args.j}.json"
        _write_json(path, gd.to_json())
    else:
        path = _equation_artifacts(f"gauge_j{args.j}", gd.gauged, args.format, out)
    print(f"wrote {path}")
    print(f"residual_bad_cubics: {gd.residual_bad_cubics}")
    return 0


def cmd_export(args) -> int:
    _echo(args)
    equations = [(f"hierarchy_n{n}", build_hierarchy_equation(n)) for n in range(args.n_max + 1)]
    equations += [(f"gauged_j{j}", derive_gauged(build_hierarchy_equation(2 * j - 1)).gauged)
                  for j in range(1, args.j_max + 1)]
    out = _outdir(args)
    for prefix, eq in equations:
        print(f"wrote {_equation_artifacts(prefix, eq, args.format, out)}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_SUITES = ("structure", "cubics", "goldens", "cancellation", "probe")


def cmd_check(args) -> int:
    if args.all or not any(getattr(args, s) for s in _SUITES):
        for s in _SUITES:
            setattr(args, s, True)
    del args.all
    _echo(args)
    results = []

    def report(name: str, ok: bool, detail: str = ""):
        results.append({"check": name, "pass": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    if args.structure:
        n_max = 12 if args.n_max is None else args.n_max
        for n in range(1, n_max + 1):
            try:
                rep = check_Y_properties(n)
                c, ok = rep.single_factor_coeff, rep.matches_minus_n_plus_1_exponent
                report(f"Y structure items 1-4, n={n}", ok,
                       f"single-factor coefficient ({c.re},{c.im}) {'=' if ok else '!='} -(2i)^-(n+1)")
            except PropertyViolation as exc:
                report(f"Y structure items 1-4, n={n}", False, str(exc))
    if args.cubics:
        n_max = 9 if args.n_max is None else args.n_max
        for n in range(1, n_max + 1):
            chk = verify_bad_cubics(n)
            report(f"bad-cubic closed form, n={n}", chk.matches)
    if args.goldens:
        for n in REFERENCE_HIERARCHY_RANGE:
            diff = compare_hierarchy_equation(n)
            report(f"reference table, hierarchy n={n}", diff.matches,
                   "; ".join(f"{k}: {v}" for k, v in diff.differences.items()))
        for j in REFERENCE_GAUGED_RANGE:
            diff = compare_gauged_equation(j)
            report(f"reference table, gauged j={j}", diff.matches, "; ".join(diff.notes))
    if args.cancellation:
        for j in range(1, args.j_max + 1):
            try:
                gd = derive_gauged(build_hierarchy_equation(2 * j - 1))
                report(f"bad-cubic cancellation, j={j}", is_gauged_form(gd.gauged))
            except ResidualBadCubic as exc:
                report(f"bad-cubic cancellation, j={j}", False, str(exc))
    if args.probe:
        base = gauge_lipschitz_probe(0.6, 4, 0.1, trials=60, seed=0)
        doubled = gauge_lipschitz_probe(0.6, 4, 0.2, trials=60, seed=0)
        ok = np.isfinite(base.max_ratio) and np.isfinite(doubled.max_ratio) \
            and doubled.max_ratio <= 20 * base.max_ratio
        report("gauge continuity probe (s,p)=(0.6,4)", ok,
               f"max ratio {base.max_ratio:.4f} at radius 0.1, {doubled.max_ratio:.4f} at 0.2")

    all_pass = all(r["pass"] for r in results)
    _write_json(_outdir(args) / "check_report.json",
                {"results": results, "all_pass": all_pass})
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if -1 not in args.monitors:
        args.monitors = (-1, *args.monitors)
    if args.length is None:
        args.length = 2 * np.pi if args.equation == "planewave" else 32 * np.pi
    grid = Grid(args.grid, args.length)
    if not abs(args.carrier) < args.grid // 2:
        raise ConfigError(f"--carrier must satisfy |carrier| < grid/2 = {args.grid // 2}")
    k = args.pw_n * args.length / (2 * np.pi)  # the plane wave's grid mode
    if args.equation == "planewave" and not (
            abs(k - round(k)) <= 1e-9 * abs(k) and abs(round(k)) < args.grid // 2):
        raise ConfigError(f"--pw-N {args.pw_n} is mode k = N·L/(2π) = {k:.12g}, not an "
                          f"integer with |k| < grid/2 = {args.grid // 2}")
    cfg = SimConfig(
        j=args.j, dt=args.dt, t_end=args.t_end, dealias=args.dealias,
        integrator=args.integrator, monitors=args.monitors,
        monitor_stride=args.monitor_stride,
    )
    config = _echo(args)
    reference = None
    if args.equation == "planewave":
        a = complex(args.pw_a)
        nl = compile_evaluator(plane_wave_nonlinearity(args.j), args.dealias)
        u0 = plane_wave_reference(args.j, args.pw_n, a, args.pw_s, 0.0, grid)
        reference = lambda t: plane_wave_reference(args.j, args.pw_n, a, args.pw_s, t, grid)
    else:
        u0 = gaussian_bump(grid, args.amplitude, args.width, carrier=args.carrier)
        if args.equation == "linear":
            nl = None
        else:
            eq = build_hierarchy_equation(2 * args.j - 1)
            if args.equation == "gauged":
                eq = derive_gauged(eq).gauged
            nl = compile_evaluator(eq.nonlinearity, args.dealias)
    res = simulate(cfg, u0, nl, reference=reference)
    out = _outdir(args)

    # (header, series) pairs, a list: a repeated monitor repeats its columns.
    columns = [("time", res.times), ("mass", res.monitors[-1].real)]
    for n in args.monitors:
        if n != -1:
            columns += [(f"re_I{n}", res.monitors[n].real), (f"im_I{n}", res.monitors[n].imag)]
    if res.l2_errors is not None:
        columns.append(("l2_error", res.l2_errors))
    rows = (",".join(repr(float(s[i])) for _, s in columns) for i in range(len(res.times)))
    csv_path = out / "timeseries.csv"
    csv_path.write_text(",".join(h for h, _ in columns) + "\n" + "\n".join(rows) + "\n")

    snap_path = out / "final.bin"
    write_snapshot(snap_path, res.field, args.j)

    drift = {
        str(n): repr(float(np.max(np.abs(series - series[0]))))
        for n, series in res.monitors.items()
    }
    _write_json(out / "report.json", {
        "config": config,
        "steps": cfg.n_steps,
        "linear_phase_per_step": repr(cfg.linear_phase_per_step(grid)),
        "monitor_drift_abs": drift,
        "evaluator": None if nl is None else {
            "terms": len(nl.lowered_terms), "multiplies": nl.multiplies, "p": nl.pad_length(grid)},
        "final_l2_error": None if res.l2_errors is None else repr(float(res.l2_errors[-1])),
    })
    print(f"wrote {csv_path}")
    print(f"wrote {snap_path}")
    return 0


# ---------------------------------------------------------------------------
# picard / norms / resonance
# ---------------------------------------------------------------------------

def cmd_picard(args) -> int:
    _echo(args)
    fit = growth_exponent_fit(args.j, args.s, args.r, args.n_list)
    out = _outdir(args)
    _write_json(out / "picard_fit.json", asdict(fit))
    csv = "N,norm\n" + "\n".join(
        f"{int(N)},{repr(v)}" for N, v in zip(fit.N_values, fit.norms)
    )
    (out / "picard_norms.csv").write_text(csv + "\n")
    print(f"fitted slope {fit.slope!r} (predicted {fit.predicted!r})")
    print(f"wrote {out / 'picard_fit.json'}")
    return 0


def cmd_norms(args) -> int:
    _echo(args)
    try:
        f, j = read_snapshot(args.input)
    except (ConfigError, OSError) as exc:
        raise ConfigError(f"cannot read snapshot {args.input}: {exc}") from None
    values = {"l2": repr(f.l2_norm()), "j": j, "time": repr(f.time)}
    if args.r is not None:
        values[f"fourier_lebesgue(s={args.s},r={args.r})"] = repr(
            NormSpec("fourier_lebesgue", args.s, args.r)(f)
        )
    if args.p is not None:
        values[f"modulation(s={args.s},p={args.p})"] = repr(
            NormSpec("modulation", args.s, args.p)(f)
        )
    _write_json(_outdir(args) / "norms.json", values)
    for k, v in sorted(values.items()):
        print(f"{k}: {v}")
    return 0


def cmd_resonance(args) -> int:
    _echo(args)
    stats = resonance_ratio_stats(args.j, args.count, args.seed)
    _write_json(_outdir(args) / "resonance.json", asdict(stats))
    print(f"kept {stats.count_kept} triples; min ratio {stats.min_ratio!r}; "
          f"median {stats.median_ratio!r}")
    return 0 if stats.min_ratio > 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The command line; each option's name, type (with its range check) and
    default is stated here only.  ``parser.verbs`` maps each verb to its
    subparser."""
    parser = argparse.ArgumentParser(
        prog="dnls-hierarchy",
        description="Derive, gauge, verify and simulate dNLS hierarchy equations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices
    finite = _number(float, np.isfinite, "a finite number")

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = verb("derive", cmd_derive, "derive one hierarchy equation")
    p.add_argument("--n", type=_int_at_least(0), required=True, help="hierarchy index")
    p.add_argument("--alpha", type=_alpha_text, default=None,
                   help="Gaussian rational 'a/b+c/d i' (default 2^n)")
    p.add_argument("--format", choices=("latex", "json", "text"), default="text")

    p = verb("gauge", cmd_gauge, "derive the gauged equation for dispersion order 2j")
    p.add_argument("--j", type=_int_at_least(1), required=True, help="dispersion order 2j")
    p.add_argument("--format", choices=("latex", "json", "text"), default="json")

    p = verb("check", cmd_check, "run verification suites")
    p.add_argument("--all", action="store_true")
    for suite in _SUITES:
        p.add_argument(f"--{suite}", action="store_true")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(0), default=None)
    p.add_argument("--j-max", dest="j_max", type=_int_at_least(0), default=5)

    p = verb("simulate", cmd_simulate, "integrate an equation on a periodic grid")
    p.add_argument("--j", type=_int_at_least(1), required=True, help="dispersion order 2j")
    p.add_argument("--equation", choices=("hierarchy", "gauged", "linear", "planewave"),
                   default="hierarchy")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--length", type=float, default=None)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", dest="t_end", type=float, default=0.1)
    p.add_argument("--integrator", choices=("IFRK4", "ETDRK4"), default="IFRK4")
    p.add_argument("--monitors", default="mass",
                   type=_comma_list(r"mass|-1|\d+", "monitors are 'mass', -1 or n >= 0"),
                   help="comma list of functional indices; 'mass' means the L2 mass")
    p.add_argument("--monitor-stride", dest="monitor_stride", type=int, default=10)
    p.add_argument("--dealias", choices=("pad", "truncate"), default="pad")
    p.add_argument("--amplitude", type=finite, default=0.25)
    p.add_argument("--width", type=_number(float, lambda v: 0 < v < np.inf, "positive and finite"),
                   default=3.0)
    p.add_argument("--carrier", type=int, default=0)
    p.add_argument("--pw-N", dest="pw_n", type=_number(int, bool, "a nonzero integer"), default=4)
    p.add_argument("--pw-s", dest="pw_s", type=finite, default=1.0)
    p.add_argument("--pw-a", dest="pw_a", type=_complex_text, default="1+0j")

    r_type = _number(float, lambda v: v > 1, "> 1")
    p = verb("picard", cmd_picard, "third-Picard-iterate growth experiment")
    p.add_argument("--j", type=_int_at_least(1), required=True, help="dispersion order 2j")
    p.add_argument("--s", type=finite, default=0.5)
    p.add_argument("--r", type=r_type, default=2.0)
    p.add_argument("--N-list", dest="n_list", default="16,32,64,128,256",
                   type=_comma_list(r"[1-9]\d*", "frequencies are integers >= 1"))

    p = verb("norms", cmd_norms, "norms of a stored snapshot")
    p.add_argument("--input", required=True, help="snapshot file")
    p.add_argument("--s", type=finite, default=0.0)
    p.add_argument("--r", type=r_type, default=None)
    p.add_argument("--p", type=_number(float, lambda v: v >= 1, ">= 1"), default=None)

    p = verb("resonance", cmd_resonance, "sample the resonance comparison")
    p.add_argument("--j", type=_int_at_least(1), required=True, help="dispersion order 2j")
    p.add_argument("--count", type=_int_at_least(1), default=10 ** 6)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = verb("export", cmd_export, "export derived equations as artifacts")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(0), default=5)
    p.add_argument("--j-max", dest="j_max", type=_int_at_least(0), default=3)
    p.add_argument("--format", choices=("latex", "json", "text"), default="text")

    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="artifact directory (default ./out)")
        p.add_argument("--config", default=None, help="JSON file supplying option values")
    return parser


def _config_flags(verb: argparse.ArgumentParser, path: str) -> list[str]:
    """The JSON object in a --config file as the verb's flags: ``--flag=value``,
    a list comma-joined; a store_true key is its bare flag when true and no
    flag when false; null gives no flag."""
    try:
        values = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read config {path}: {exc}")
    if not isinstance(values, dict):
        _usage_error(f"config {path} is not a JSON object")
    actions = {a.dest: a for a in verb._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        _usage_error(f"unknown config keys: {unknown}")
    flags = []
    for key, value in values.items():
        name = actions[key].option_strings[-1]
        if actions[key].nargs == 0:  # store_true
            if not isinstance(value, bool):
                _usage_error(f"{name} must be true or false, not {value!r}")
            if value:
                flags.append(name)
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(f"{name}={text}")
    return flags


# Each library error a verb lets through: exit status (2 usage, 1 failed run), stderr prefix.
_FAILURES = {
    ConfigError: (2, ""),
    ResolutionError: (2, "--N-list: "),
    BlowupDetected: (1, "blow-up: "),
    FitDegenerate: (1, "fit failed: "),
    ResidualBadCubic: (1, ""),
    OverflowError: (2, ""),
}


def main(argv=None) -> int:
    """Parse argv once.  A --config file's values enter as flags right after
    the verb, so they meet each option's type, choices and ``required`` as
    flags do, and flags given on the command line win."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # nargs="?": a --config without a file is left for the full parse to report.
    find_config = argparse.ArgumentParser(add_help=False)
    find_config.add_argument("--config", nargs="?")
    path = find_config.parse_known_args(argv)[0].config
    if path and argv[0] in parser.verbs:
        argv[1:1] = _config_flags(parser.verbs[argv[0]], path)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        status, prefix = _FAILURES[type(exc)]
        if status == 2:
            _usage_error(f"{prefix}{exc}")
        print(f"{prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
