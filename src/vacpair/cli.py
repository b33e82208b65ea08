"""Command-line interface: single-point evaluation, distance sweeps to CSV,
and the closed-form/oracle validation suite.

Exit codes: 0 success, 1 validation or accuracy failure (AccuracyError, which
names the first x at fault), 2 usage error (DomainError), a file that cannot
be read or written, or an allocation that fails, each one stderr line.
A configuration file (flat key=value lines, keys mirroring the long flags)
can be supplied with --config or the VACPAIR_CONFIG environment variable.
Its lines are parsed as flags placed ahead of the command line's, so file
values are checked like flags (a bad value exits 2), they may supply
sweep's required --xmin, --xmax and --points, and explicit flags override
them.  Keys the command has no flag for are ignored.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, casimir, entanglement, kernel, model
from .errors import AccuracyError, DomainError

BOHR_RADIUS_SI = 5.29177210903e-11  # m

# Numeric columns serialize at 17 digits.  Concurrence columns carry the
# unclamped law values so emitted curves obey their power laws even past the
# weak-coupling breakdown flagged by `validity`; `concurrence_clamped` is the
# [0, 1] version behind `eof`.
CSV_COLUMNS = ("x", "r_over_a0", "concurrence_full", "concurrence_near",
               "concurrence_far", "eof", "wcp_energy", "validity")
EXTRA_COLUMNS = ("wcp_abs_err", "concurrence_clamped", "margin")

_PRESETS = {"hydrogen-1s2p": model.hydrogen_1s2p}
# rows a sweep evaluates as one array configuration: enough to spread the
# cost of a call over its rows, few enough that a chunk's arrays (60
# Laguerre nodes a row) stay well under a MiB
_CHUNK_ROWS = 256


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def _parse_direction(text: str, name: str) -> np.ndarray:
    """The unit vector along the comma-separated 3-vector text of flag name."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse vector {text!r}: {exc}") from None
    if len(parts) != 3:
        raise DomainError(f"vector must have 3 components, got {text!r}")
    return model._norm_and_direction(model._as_vec3(parts, name), name)[1]


def _add_config_flags(p: argparse.ArgumentParser, separation: bool) -> None:
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--preset", choices=sorted(_PRESETS),
                   help="named dimensional atom pair")
    p.add_argument("--mu", type=float, help="dimensionless coupling strength")
    if separation:
        p.add_argument("--x", type=float, help="dimensionless separation k0*R")
        p.add_argument("--r", type=float,
                       help="dimensional separation (needs a preset or atom flags)")
        p.add_argument("--units", choices=("atomic", "si"), default="atomic",
                       help="units of --r (default atomic)")
    p.add_argument("--omega0", type=float,
                   help="transition frequency of a custom atom pair (atomic units)")
    p.add_argument("--dmag-a", type=float,
                   help="dipole magnitude of atom A (custom dimensional pair)")
    p.add_argument("--dmag-b", type=float,
                   help="dipole magnitude of atom B (custom dimensional pair)")
    p.add_argument("--dipole-a", default="1,0,0",
                   help="dipole orientation of atom A as x,y,z (default 1,0,0)")
    p.add_argument("--dipole-b", default=None,
                   help="dipole orientation of atom B (default: same as A)")
    p.add_argument("--sep-dir", default="0,0,1",
                   help="separation direction as x,y,z (default 0,0,1)")
    p.add_argument("--isotropic", action="store_true",
                   help="rotationally averaged polarizabilities in the pair energy")


def _build_parsers() -> tuple[argparse.ArgumentParser,
                               dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparsers of the commands that take --config."""
    parser = argparse.ArgumentParser(
        prog="vacpair",
        description="Vacuum-induced two-atom entanglement and Casimir-Polder energy")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one configuration")
    _add_config_flags(p_point, separation=True)

    p_sweep = sub.add_parser("sweep", help="sweep the separation, emit CSV")
    _add_config_flags(p_sweep, separation=False)
    p_sweep.add_argument("--xmin", type=float, required=True)
    p_sweep.add_argument("--xmax", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--scale", choices=("log", "linear"), default="log")
    p_sweep.add_argument("--columns",
                         help="comma-separated subset of output columns")
    p_sweep.add_argument("--output", default="-",
                         help="output path, or - for stdout (default)")

    p_val = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser, {"point": p_point, "sweep": p_sweep}


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _config_flags(command: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """The command's configuration file as flag tokens, to go ahead of argv.

    Parsed with the command's own parser, file values get the same type,
    choice and required checks as flags, and an explicit flag still wins.
    Keys must name one of the command's flags exactly (so `x` does not
    prefix-match `--xmin` under sweep); other keys are ignored.
    """
    pre = argparse.ArgumentParser(prog=command.prog, add_help=False)
    pre.add_argument("--config")
    given = pre.parse_known_args(argv)[0].config
    path = given or os.environ.get("VACPAIR_CONFIG")
    if not path or (given is None and not os.path.exists(path)):
        return []  # no file, or a dangling environment default
    actions = command._option_string_actions
    tokens = []
    for key, text in _load_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or action.dest == "help":
            continue
        if action.nargs != 0:
            tokens.append(f"{flag}={text}")  # one token: a leading minus is no flag
        elif text.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
        elif text.lower() not in ("0", "false", "no", "off"):
            raise DomainError(f"{path}: {key} must be true or false, got {text!r}")
    return tokens


def _resolve_geometry(args):
    """n_a, n_b, the separation direction, and the atoms (None if not given)."""
    n_a = _parse_direction(args.dipole_a, "dipole-a")
    n_b = _parse_direction(args.dipole_b, "dipole-b") if args.dipole_b else n_a.copy()
    atoms = None
    if args.preset:
        factory = _PRESETS[args.preset]
        atoms = factory(orientation=n_a), factory(orientation=n_b)
    elif args.omega0 is not None or args.dmag_a is not None or args.dmag_b is not None:
        if args.omega0 is None or args.dmag_a is None or args.dmag_b is None:
            raise DomainError(
                "custom dimensional atoms need --omega0, --dmag-a and --dmag-b")
        atoms = (model.TwoLevelAtom(args.omega0, args.dmag_a * n_a),
                 model.TwoLevelAtom(args.omega0, args.dmag_b * n_b))
    return n_a, n_b, _parse_direction(args.sep_dir, "sep-dir"), atoms


def _coupled(args, n_a, n_b, r_hat, atoms):
    """mu, and x -> (configuration, r_over_a0) at that coupling, for a float
    x or an array of them."""
    if args.mu is not None:
        if atoms is not None:
            raise DomainError("give either --mu or dimensional atoms, not both")
        mu, k0 = args.mu, float("nan")  # so r_over_a0 = x / k0 is nan
    elif atoms is None:
        raise DomainError("a coupling is required: --mu, a preset, or atom flags")
    else:  # mu does not depend on the separation, so reduce at the unit one
        mu, k0 = model.reduce(*atoms, r_hat).mu, atoms[0].wavenumber()
    # with no numpy warning where r_over_a0 overflows, which _evaluate reports
    return mu, np.errstate(over="ignore")(lambda x: (
        model.PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=mu), x / k0))


def _evaluate(cfg: model.PairConfiguration, r_over_a0,
              isotropic: bool) -> dict[str, list]:
    """The CSV_COLUMNS and EXTRA_COLUMNS values at every x of cfg, by name,
    each a list with one value per x.

    A law's AccuracyError, which names the first x at fault, gains its column.
    """
    column = "concurrence_full"
    try:
        full = entanglement.concurrence_full(cfg)
        column = "concurrence_near"
        near = entanglement.concurrence_near(cfg)
        column = "concurrence_far"
        far = entanglement.concurrence_far(cfg)
        eof = entanglement.entanglement_of_formation(full.value)
        column = "wcp_energy"
        w = casimir.wcp(cfg, isotropic=isotropic)
        column = "r_over_a0"  # R = x / k0 overflows at a tiny omega0 where the laws hold
        overflows = np.flatnonzero(np.isinf(r_over_a0))
        if overflows.size:
            raise kernel.out_of_range(np.ravel(cfg.x)[overflows[0]])
    except AccuracyError as exc:  # the library's messages name x
        raise AccuracyError(f"{column}: {exc}") from None
    validity = [flag.value for flag in np.atleast_1d(full.validity.flag)]
    values = (cfg.x, r_over_a0, full.raw, near.raw, far.raw, eof, w.energy, validity,
              w.abs_err_est, full.value, full.validity.margin)
    return {name: np.atleast_1d(v).tolist()
            for name, v in zip(CSV_COLUMNS + EXTRA_COLUMNS, values)}


def cmd_point(args) -> int:
    n_a, n_b, r_hat, atoms = _resolve_geometry(args)
    if args.r is not None:
        if args.x is not None:
            raise DomainError("give either --x or --r, not both")
        if atoms is None:
            raise DomainError("--r needs a preset or custom dimensional atoms")
        r_atomic = args.r if args.units == "atomic" else args.r / BOHR_RADIUS_SI
        if r_atomic <= 0:
            raise DomainError("separation must be positive")
        x = r_atomic * atoms[0].wavenumber()
        if np.isfinite(args.r) and not 0 < x < np.inf:
            raise AccuracyError(f"r: x = r*k0 is out of floating-point range at r={args.r!r}")
    elif args.x is None:
        raise DomainError("a separation is required: --x or --r")
    elif args.x <= 0:
        raise DomainError(f"x must be positive, got {args.x}")
    else:
        x = args.x
    mu, pair_at = _coupled(args, n_a, n_b, r_hat, atoms)
    row = {name: values[0] for name, values in _evaluate(*pair_at(x), args.isotropic).items()}
    print(f"# vacpair point (v{__version__}); atomic units, "
          f"wcp_energy in hbar*omega0")
    entries = [("x", _fmt(row["x"]))]
    if np.isfinite(row["r_over_a0"]):
        entries.append(("r_over_a0", _fmt(row["r_over_a0"])))
    entries.append(("mu", _fmt(mu)))
    entries += [(k, _fmt(row[k])) for k in ("concurrence_full", "concurrence_clamped",
                                            "concurrence_near", "concurrence_far", "eof")]
    entries += [
        ("wcp_energy", f"{_fmt(row['wcp_energy'])} (abs err {row['wcp_abs_err']:.2e})"),
        ("validity", f"{row['validity']} (margin {_fmt(row['margin'])})"),
    ]
    width = max(len(k) for k, _ in entries)
    for key, val in entries:
        print(f"{key:<{width}} = {val}")
    return 0


def _selected_columns(args) -> list[str]:
    if not args.columns:
        return list(CSV_COLUMNS)
    cols = [c.strip() for c in args.columns.split(",") if c.strip()]
    known = set(CSV_COLUMNS) | set(EXTRA_COLUMNS)
    for c in cols:
        if c not in known:
            raise DomainError(f"unknown column {c!r}; choose from "
                              f"{', '.join(CSV_COLUMNS + EXTRA_COLUMNS)}")
    if not cols:
        raise DomainError("--columns selected nothing")
    return cols


def cmd_sweep(args) -> int:
    if not (np.isfinite(args.xmin) and np.isfinite(args.xmax)):
        raise DomainError("xmin and xmax must be finite")
    if args.xmin <= 0 or args.xmin >= args.xmax:
        raise DomainError("need 0 < xmin < xmax")
    if args.points < 2:
        raise DomainError("need at least 2 sweep points")
    columns = _selected_columns(args)
    if args.scale == "log":
        xs = np.geomspace(args.xmin, args.xmax, args.points)
    else:
        xs = np.linspace(args.xmin, args.xmax, args.points)

    mu, pair_at = _coupled(args, *_resolve_geometry(args))
    header = (
        f"# vacpair sweep v{__version__}\n"
        "# units: Hartree atomic units (Gaussian convention); "
        "wcp_energy in units of hbar*omega0\n"
        f"# config: mu={_fmt(mu)} "
        f"dipole_a={args.dipole_a} dipole_b={args.dipole_b or args.dipole_a} "
        f"sep_dir={args.sep_dir} preset={args.preset or '-'} "
        f"scale={args.scale} isotropic={args.isotropic}\n"
        + ",".join(columns) + "\n")

    def write_rows(out, cfg_and_r_over_a0) -> None:
        values = _evaluate(*cfg_and_r_over_a0, args.isotropic)
        out.writelines(",".join(map(_fmt, row)) + "\n"
                       for row in zip(*(values[c] for c in columns)))

    def write(out) -> None:
        # a chunk of rows at a time, each written as soon as it is computed,
        # so memory stays flat however many rows there are
        out.write(header)
        for start in range(0, len(xs), _CHUNK_ROWS):
            chunk = xs[start:start + _CHUNK_ROWS]
            try:
                write_rows(out, pair_at(chunk))
            except AccuracyError as exc:
                # the rows before the first x that fails, then its error as
                # `point` reports it there
                for x in chunk.tolist():
                    write_rows(out, pair_at(x))
                raise RuntimeError(f"a sweep chunk failed but none of its rows "
                                   f"did: {exc}") from None

    if args.output == "-":
        write(sys.stdout)
    else:
        _write_all_or_nothing(args.output, write)
    return 0


def _write_all_or_nothing(path: str, write) -> None:
    """write(file) into path, so that a write that raises leaves path as it was.

    A regular file, or a new one, is written beside its target (the file a
    symlink names) and renamed onto it once write returns.  Anything else,
    such as a device or a pipe, is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    target = os.path.realpath(path)
    part = f"{target}.{os.getpid()}.part"
    # O_EXCL never writes through a file already there; 0o666 less the umask, as open()
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def cmd_validate(args) -> int:
    from . import validate  # its oracles are no part of point and sweep

    results = validate.run_validation(args.level)
    print(validate.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, configurable = _build_parsers()
    try:
        if argv and argv[0] in configurable:
            argv[1:1] = _config_flags(configurable[argv[0]], argv[1:])
        args = parser.parse_args(argv)
        if args.command == "point":
            return cmd_point(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_validate(args)
    except DomainError as exc:
        print(f"vacpair: error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, ArithmeticError) as exc:
        # ArithmeticError: any other set-up arithmetic outside a row
        print(f"vacpair: accuracy failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vacpair: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array, such as a sweep's x grid of 10^17
        # points
        print(f"vacpair: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
