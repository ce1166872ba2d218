"""Batch command-line interface.

One command per process, machine-readable outputs (JSON results, CSV
tables), deterministic by construction: no seeds, fixed iteration
orders.  :func:`main` is the only layer: it parses the arguments, checks
that the inputs exist, runs the command and maps its exceptions and gate
breaches to exit codes: 0 success, 2 validation error, 3 numerical
failure, 4 invariant breach beyond tolerance.  Grid flags left unset
take the defaults of :meth:`~canspec.model.GridConfig.for_bandwidth`.
Each command imports the modules it runs, so ``canspec forward`` starts
without SciPy.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import forward
from .model import (
    DET_TOL,
    GridConfig,
    Hamiltonian,
    InvariantViolation,
    NumericalError,
    SpectralMeasure,
    ValidationError,
    _fmt,
    dumps_hamiltonian,
    dumps_measure,
    load_hamiltonian,
    load_measure,
)

__all__ = ["main"]

#: ``out(name)`` is the path of output ``name``; it refuses to overwrite an input
Output = Callable[[str], Path]

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
_EXIT_INVARIANT = 4

#: invariant gates applied to diagnostics at the end of pipeline commands
_GATES = {
    "sine_norm_residual_max": 1e-4,
    "definitional_residual_max": 1e-6,
    "max_det_residual": DET_TOL,
}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc, indent=2, default=_json_default))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = ["\t".join(header)]
    for vals in zip(*columns):
        rows.append("\t".join(_fmt(v) for v in vals))
    _write(path, "\n".join(rows))


def _check_gates(diagnostics: dict, tol_override: float | None) -> list[str]:
    """Names of breached invariant gates (tolerances are never loosened).

    A value passes only when it is at most its tolerance, so NaN breaches.
    With ``tol_override`` the would-be verdict at the override is printed
    alongside, but the returned breaches always use the built-in gates.
    """
    breaches = []
    for key, tol in _GATES.items():
        if key not in diagnostics:
            continue
        val = float(diagnostics[key])
        if not val <= tol:
            breaches.append(f"{key}={val:.3e}, not <= {tol:.1e}")
        if tol_override is not None:
            verdict = "pass" if val <= tol_override else "fail"
            print(
                f"[tol-override] {key}: {val:.3e} vs override {tol_override:.1e} "
                f"-> {verdict} (delta {val - tol:.3e} against the hard gate {tol:.1e})"
            )
    return breaches


def _grid(opts: dict) -> dict:
    """The grid flags given on the command line, for ``GridConfig.for_bandwidth``."""
    return {k: opts[k] for k in ("pw_truncation", "s_samples", "r_samples") if k in opts}


def _det_certificate(H: Hamiltonian, mu: SpectralMeasure) -> float:
    """Relative determinant drift of the propagation at the atoms, ``+-window`` and ``z = i``."""
    real = np.concatenate([mu.positions, [-mu.window, mu.window]])
    return max(forward.det_residual(H, real), forward.det_residual(H, 1j))


def _cmd_forward(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    H = load_hamiltonian(inputs[0])
    mu = forward.spectral_measure(H, opts["window"])
    _write(out("measure.json"), dumps_measure(mu))
    diagnostics = {
        "atoms": int(mu.positions.size),
        "herglotz_c": mu.herglotz_c,
        "exponential_type": forward.exponential_type(H),
        "max_det_residual": _det_certificate(H, mu),
        "tail_model_residual": forward.herglotz_constants(H, mu)[1],
    }
    _write_json(out("diagnostics.json"), diagnostics)
    print(f"wrote {out('measure.json')} ({mu.positions.size} atoms)")
    return _check_gates(diagnostics, opts["tol_override"])


def _reconstruction_outputs(out: Output, result, prefix: str = "") -> None:
    H = result.hamiltonian
    _write(out(f"{prefix}hamiltonian.json"), dumps_hamiltonian(H))
    mids = 0.5 * (H.edges[:-1] + H.edges[1:])
    _write_csv(
        out(f"{prefix}hamiltonian.csv"),
        ["r", "h11", "h12", "h22"],
        [mids, H.matrices[:, 0, 0], H.matrices[:, 0, 1], H.matrices[:, 1, 1]],
    )
    _write_csv(
        out(f"{prefix}chain.csv"),
        ["s", "position", "n11", "n12", "n22", "sine_norm_residual"],
        list(result.zeta_table.T),
    )


def _cmd_inverse(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    from .inverse import RecoveryPipeline

    mu = load_measure(inputs[0])
    cfg = GridConfig.for_bandwidth(mu.type, measure_window=mu.window, **_grid(opts))
    result = RecoveryPipeline(mu, c=mu.herglotz_c, cfg=cfg).run()
    _reconstruction_outputs(out, result)
    diagnostics = dict(result.diagnostics)
    _write_json(out("diagnostics.json"), diagnostics)
    print(f"recovered weight on [0, {result.hamiltonian.ell:.6g}]")
    return _check_gates(diagnostics, opts["tol_override"])


def _cmd_roundtrip(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    from . import oracles

    H = load_hamiltonian(inputs[0])
    report = oracles.roundtrip(H, window=opts["window"], **_grid(opts))
    _write(out("normalized_input.json"), dumps_hamiltonian(report.normalized))
    _reconstruction_outputs(out, report.result, prefix="recovered_")
    diagnostics = dict(report.diagnostics)
    Ht, mu = report.normalized, report.measure
    diagnostics["max_det_residual"] = _det_certificate(Ht, mu)
    diagnostics["tail_model_residual"] = forward.herglotz_constants(Ht, mu)[1]
    diagnostics["sup_error"] = report.sup_error
    diagnostics["sup_error_interior"] = report.sup_error_interior
    diagnostics["l1_relative"] = report.l1_relative
    _write_json(out("roundtrip.json"), diagnostics)
    edges = report.result.hamiltonian.edges
    resid = report.cell_error
    _write_csv(
        out("residuals.csv"),
        ["r", "d_h11", "d_h12", "d_h22"],
        [0.5 * (edges[:-1] + edges[1:]), resid[:, 0, 0], resid[:, 0, 1], resid[:, 1, 1]],
    )
    print(
        f"round trip: max relative L1 error {report.max_l1_relative:.3e}, "
        f"interior sup {float(np.max(report.sup_error_interior)):.3e}"
    )
    return _check_gates(diagnostics, opts["tol_override"])


def _cmd_framebounds(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    from .pwspace import frame_bounds

    mu = load_measure(inputs[0])
    s = mu.type if opts["s"] is None else opts["s"]
    half = GridConfig.for_bandwidth(s, measure_window=mu.window, **_grid(opts)).basis_half_size(s)
    lo, hi = frame_bounds(mu, s, half)
    doc = {"lambda_min": lo, "lambda_max": hi, "N": half, "s": s}
    _write_json(out("framebounds.json"), doc)
    print(json.dumps(doc))
    return []


def _cmd_example_nonpw(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    from . import oracles

    report = oracles.nonpw_example(opts["h"], opts["kmax"])
    doc = {
        "h": report.h,
        "k": report.k_list,
        "E": report.E_values,
        "E_scaled": report.ratios,
        "E_over_lambda": report.lambda_over,
        "partial_product_errors": report.partial_product_errors,
        "tail_factor_bounds": report.tail_factor_bounds,
    }
    _write_json(out("nonpw.json"), doc)
    _write_csv(
        out("nonpw.csv"),
        ["k", "E", "E_scaled", "E_over_lambda"],
        [report.k_list.astype(float), report.E_values, report.ratios, report.lambda_over],
    )
    print(json.dumps({"E_scaled": doc["E_scaled"].tolist()}))
    breaches = []
    if np.any(report.partial_product_errors > 1e-10):
        breaches.append("partial products deviate from the closed form")
    if np.any(np.diff(report.lambda_over) <= 0):
        breaches.append("structure-function growth ratios are not increasing")
    return breaches


def _load_profile(path: Path | None):
    """Profile ``w`` of increasing two-column ``t w`` rows and the ``t`` range they sample.

    A non-numeric first row is a header; ``w`` holds its end values outside the range.
    """
    if path is None:
        return (lambda t: np.ones_like(t)), (-np.inf, np.inf)
    data = []
    for i, line in enumerate(path.read_text().strip().splitlines()):
        try:
            t, w = map(float, line.split())
        except ValueError:
            if i == 0:
                continue
            raise ValidationError(f"{path}: line {i + 1} is not two numbers: {line!r}") from None
        data.append((t, w))
    if not data:
        raise ValidationError(f"{path}: no profile samples")
    data = np.array(data)
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ValidationError(f"{path}: the t column is not strictly increasing")
    return (lambda t: np.interp(t, *data.T)), (float(data[0, 0]), float(data[-1, 0]))


def _cmd_check_diag(opts: dict, inputs: tuple[Path, ...], out: Output) -> list[str]:
    from . import oracles

    w, (t_first, t_last) = _load_profile(inputs[0] if inputs else None)
    results = []
    for n in opts["n_list"]:
        for s in opts["s_list"]:
            ratio = oracles.diag_necessary_condition(w, n, s)
            oracle = oracles.diag_necessary_condition(
                w, n, s, num_points=40001, rule="trapezoid"
            )
            row = {"n": n, "s": s, "ratio": ratio, "oracle_delta": abs(ratio - oracle)}
            row["profile_extended"] = t_first > 0.0 or t_last < s  # w held at an end value
            results.append(row)
    _write_json(out("checkdiag.json"), results)
    _write_csv(
        out("checkdiag.csv"),
        ["n", "s", "ratio", "oracle_delta"],
        [
            np.array([float(r["n"]) for r in results]),
            np.array([r["s"] for r in results]),
            np.array([r["ratio"] for r in results]),
            np.array([r["oracle_delta"] for r in results]),
        ],
    )
    print(json.dumps(results))
    if any(r["oracle_delta"] > 1e-6 for r in results):
        return ["recursive quadrature disagrees with the brute-force oracle"]
    return []


_COMMANDS = {
    "forward": _cmd_forward,
    "inverse": _cmd_inverse,
    "roundtrip": _cmd_roundtrip,
    "framebounds": _cmd_framebounds,
    "example-nonpw": _cmd_example_nonpw,
    "check-diag": _cmd_check_diag,
}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canspec",
        description="direct and inverse spectral computations for 2x2 canonical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True, gated=False):
        if needs_in:
            p.add_argument("--in", dest="input", required=True, help="input JSON file")
        else:
            p.set_defaults(input=None)
        p.add_argument("--out-dir", default=".", help="output directory")
        if gated:
            p.add_argument("--tol-override", type=float, default=None,
                           help="report deltas against this tolerance (diagnostics only)")

    def grid(p, samples=True):
        # an unset flag stays out of the options: GridConfig.for_bandwidth holds the defaults
        p.add_argument("--pw-trunc", dest="pw_truncation", type=int, default=argparse.SUPPRESS)
        if samples:
            p.add_argument("--s-samples", type=int, default=argparse.SUPPRESS)
            p.add_argument("--r-samples", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("forward", help="spectral measure of a weight")
    common(p, gated=True)
    p.add_argument("--window", type=float, default=200.0)

    p = sub.add_parser("inverse", help="recover a weight from a measure")
    common(p, gated=True)
    grid(p)

    p = sub.add_parser("roundtrip", help="forward then inverse with error report")
    common(p, gated=True)
    p.add_argument("--window", type=float, default=200.0)
    grid(p)

    p = sub.add_parser("framebounds", help="comparability certificate of a measure")
    common(p)
    p.add_argument("--s", type=float, default=None, help="bandwidth (default: the measure's type)")
    grid(p, samples=False)

    p = sub.add_parser("example-nonpw", help="lacunary growth certificate")
    common(p, needs_in=False)
    p.add_argument("--h", type=float, required=True, dest="h")
    p.add_argument("--kmax", type=int, default=6)

    p = sub.add_parser("check-diag", help="diagonal admissibility ratio")
    common(p, needs_in=False)
    p.add_argument("--in", dest="input",
                   help="two-column profile samples (default: constant 1)")
    p.add_argument("--n", dest="n_list", type=_int_list, default="1,2,3",
                   help="comma-separated iteration depths")
    p.add_argument("--s", dest="s_list", type=_float_list, default="1.0",
                   help="comma-separated bandwidths")
    return parser


def main(argv=None) -> int:
    try:
        opts = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help (0) or a malformed flag (2)
        return exc.code
    command = opts.pop("command")
    path = opts.pop("input")
    inputs = (Path(path),) if path else ()
    out_dir = Path(opts.pop("out_dir"))
    resolved_inputs = {p.resolve() for p in inputs}

    def out(name: str) -> Path:
        target = out_dir / name
        if target.resolve() in resolved_inputs:
            raise ValidationError(f"output {target} would overwrite an input file")
        return target

    try:
        for p in inputs:
            if not p.exists():
                raise ValidationError(f"input file not found: {p}")
        breaches = _COMMANDS[command](opts, inputs, out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT
    except NumericalError as exc:
        print(f"numerical failure [{command}]: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    for b in breaches:
        print(f"invariant breach: {b}", file=sys.stderr)
    return _EXIT_INVARIANT if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
