"""Command-line front end.

Subcommands: spectrum, trace, det, scan, julia, homotopy-check.  Outputs
are deterministic CSV/JSON/PGM files that embed the resolved configuration;
exit codes: 0 success, 1 usage or input error, 2 numerical warning or
failure.  Every warning a subcommand raises is printed on stderr as a
``warning:`` line, before the failure line if the subcommand then fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings

import numpy as np

from . import julia as julia_mod
from .lifts import build_homotopy, find_expansive_annulus
from .maps import Annulus, MobiusFamilyMap, from_descriptor, min_expansion, to_descriptor
from .numerics import circle_nodes
from .spectra import converged_spectrum, decay_fit
from .traces import (
    closed_form_multiplier,
    det_from_spectrum,
    det_from_traces,
    det_product_formula,
    log_abs_det_product,
    trace_report,
)

__all__ = ["main"]


def _parse_map(text: str):
    try:
        try:
            obj = json.loads(text)  # any JSON goes to from_descriptor, which judges it
        except json.JSONDecodeError:
            if text.lstrip().startswith(("{", "[")):  # malformed inline JSON, not a path
                raise
            with open(text) as fh:
                obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read map descriptor {text!r}: {exc}") from exc
    return from_descriptor(obj)


def _split(text: str, sep: str, option: str, form: str, kinds=None) -> list:
    # as many parts as the form has, as kinds (default float), all finite, else an error
    kinds = kinds or [float] * (form.count(sep) + 1)
    try:
        values = [kind(p) for kind, p in zip(kinds, text.split(sep), strict=True)]
    except ValueError:
        raise ValueError(f"{option} expects {form}, got {text!r}") from None
    if any(v != v or abs(v) == np.inf for v in values):  # no float() of a huge int
        raise ValueError(f"{option} expects finite numbers, got {text!r}")
    return values


def _parse_complex(text: str, option: str) -> complex:
    return complex(*_split(text, ",", option, "re,im" if "," in text else "re"))


def _parse_annulus(text: str) -> Annulus:
    return Annulus(*_split(text, ",", "--annulus", "r,R"))


def _parse_grid(text: str, option: str) -> np.ndarray:
    lo, hi, count = _split(text, ":", option, "lo:hi:count", (float, float, int))
    if count < 1:
        raise ValueError(f"{option} gives an empty grid")
    return np.linspace(lo, hi, count)


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, **extra) -> dict:
    # output paths are not part of the numerical configuration: identical
    # configs must produce byte-identical artifacts wherever they land
    skip = {"func", "out", "dump_matrix"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg.update(extra)
    return cfg


def _annulus_and_config(args, m, search=True):
    """The annulus for map ``m`` (--annulus, else the automatic search, else
    None when not ``search``) and the resolved configuration that the
    artifact embeds, which records the annulus when there is one."""
    ann = (_parse_annulus(args.annulus) if args.annulus
           else find_expansive_annulus(m) if search else None)
    found = {} if ann is None else {"annulus": [ann.r, ann.R]}
    return ann, _config_dict(args, **found, map=to_descriptor(m))


def _spectrum_rows(spec) -> str:
    lines = ["n,re,im,modulus,converged"]
    cc = spec.converged_count or 0
    for i, lam in enumerate(spec.eigenvalues, start=1):
        lines.append(f"{i},{lam.real:.16g},{lam.imag:.16g},{abs(lam):.16g},{int(i <= cc)}")
    return "\n".join(lines) + "\n"


def _spectrum_summary(spec):
    """(|lambda_2| or 0, decay exponent beta or None if unfit, order rho_hat):
    rho_hat = 1 + 1/beta, the order of zeta -> det(I - e^zeta L), or 1.0
    where decay_fit refuses, since a finite spectrum gives order exactly 1."""
    second = abs(spec.eigenvalues[1]) if len(spec.eigenvalues) > 1 else 0.0
    try:
        beta = decay_fit(spec).beta
    except ValueError:  # too few usable eigenvalues
        beta = None
    return second, beta, 1.0 if beta is None else 1.0 + 1.0 / beta


def cmd_spectrum(args):
    if args.N < 64:
        raise ValueError(f"--N must be at least 64, got {args.N}")
    m = _parse_map(args.map)
    ann, config = _annulus_and_config(args, m)
    spec = converged_spectrum(m, ann, tol=args.tol, max_order=args.N)
    lead = spec.eigenvalues[0]
    second, beta, rho = _spectrum_summary(spec)
    if args.format == "json":
        doc = {
            "config": config,
            "eigenvalues": [[l.real, l.imag] for l in spec.eigenvalues],
            "converged_count": spec.converged_count,
            "truncation": [spec.operator.nplus, spec.operator.nminus, spec.operator.samples],
        }
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        _emit(f"# config: {json.dumps(config)}\n" + _spectrum_rows(spec), args.out)
    if args.dump_matrix:  # the operator the spectrum was solved on
        rows = ["row,col,re,im"]
        for (i, j), v in np.ndenumerate(spec.operator.matrix):
            rows.append(f"{i},{j},{v.real:.16g},{v.imag:.16g}")
        _emit("\n".join(rows) + "\n", args.dump_matrix)
    beta_text = "n/a" if beta is None else f"{beta:.4f}"
    print(
        f"lambda1={lead.real:+.9f}{lead.imag:+.3e}j |lambda2|={second:.3e} "
        f"beta={beta_text} rho_hat={rho:.3f} converged={spec.converged_count}",
        file=sys.stderr,
    )


def cmd_trace(args):
    if args.N < 1:
        raise ValueError(f"--N must be at least 1, got {args.N}")
    m = _parse_map(args.map)
    ann, config = _annulus_and_config(args, m)
    rep = trace_report(m, ann, nplus=args.N)
    doc = {
        "config": config,
        "contour": [rep.contour.real, rep.contour.imag],
        "eigensum": [rep.eigensum.real, rep.eigensum.imag],
        "maxPairwiseDiff": rep.max_pairwise_diff,
    }
    if rep.closed_form is not None:
        doc["closedForm"] = [rep.closed_form.real, rep.closed_form.imag]
    _emit(json.dumps(doc, indent=1) + "\n", args.out)


def cmd_det(args):
    m = _parse_map(args.map)
    info = closed_form_multiplier(m)
    # the closed-form scan reads no annulus, so none is searched for it
    ann, config = _annulus_and_config(args, m, search=not (args.zeta_scan and info is not None))

    if args.zeta_scan:
        grid = _parse_grid(args.zeta_scan, "--zeta-scan")
        if info is not None:
            vals = log_abs_det_product(info[0], info[1], grid)
        else:
            spec = converged_spectrum(m, ann)
            with np.errstate(divide="ignore"):  # log 0 = -inf at an exact zero
                vals = [np.log(abs(det_from_spectrum(spec, complex(z)).value)) for z in grid]
        lines = ["# config: " + json.dumps(config), "zeta_re,zeta_im,logabsZ"]
        for zeta, val in zip(grid, vals):
            lines.append(f"{zeta:.16g},0,{float(val):.16g}")
        _emit("\n".join(lines) + "\n", args.out)
        return

    if args.z is None:
        raise ValueError("need --z (or --zeta-scan) for the det command")
    z = _parse_complex(args.z, "--z")
    spec = converged_spectrum(m, ann)
    zeta = np.log(z) if z != 0 else -np.inf  # det(I - 0 L) = 1, tail 0
    routes = {"spectrum": det_from_spectrum(spec, zeta)}
    if abs(z) <= 0.5:
        routes["traces"] = det_from_traces(m, ann, z, nmax=args.nmax)
    if info is not None:
        routes["product"] = det_product_formula(info[0], info[1], z)
    doc = {"config": config}
    for name, res in routes.items():
        doc[name] = {"value": [res.value.real, res.value.imag], "tail": res.tail}
    _emit(json.dumps(doc, indent=1) + "\n", args.out)


def _scan_members(args, ends):
    """(w, member, annulus) per grid point; the annulus is --annulus, else the
    search's for a Mobius member or the homotopy family's certified one."""
    grid = _parse_grid(args.grid, "--grid")
    fixed = _parse_annulus(args.annulus) if args.annulus else None
    if args.family == "mobius":
        for w in grid:
            m = MobiusFamilyMap(complex(w))
            yield float(w), m, fixed or find_expansive_annulus(m)
    else:
        fam = build_homotopy(ends["map0"], ends["map1"])
        for w in grid:
            yield float(w), fam.member(complex(w)), fixed or fam.annulus()


def cmd_scan(args):
    ends = {}  # the homotopy endpoints, recorded as maps, not as the option strings
    if args.family == "homotopy":
        if not (args.map0 and args.map1):
            raise ValueError("homotopy scan needs --map0 and --map1")
        ends = {"map0": _parse_map(args.map0), "map1": _parse_map(args.map1)}
    rows = []
    in_band = 0
    for w, m, ann in sorted(_scan_members(args, ends), key=lambda t: t[0]):
        spec = converged_spectrum(m, ann, tol=args.tol)
        second, beta, rho = _spectrum_summary(spec)
        if 1.8 <= rho <= 2.2:
            in_band += 1
        rows.append(
            f"{w:.6g},{second:.12g},{'nan' if beta is None else f'{beta:.6g}'},"
            f"{rho:.6g},{spec.converged_count},{min_expansion(m):.6g}"
        )
    config = _config_dict(args, **{k: to_descriptor(m) for k, m in ends.items()})
    body = "# config: " + json.dumps(config) + "\n"
    body += "w,lambda2_abs,beta,rho_hat,converged,min_expansion\n"
    body += "\n".join(rows) + "\n"
    frac = in_band / len(rows)
    body += f"# fraction with rho_hat in [1.8, 2.2]: {frac:.3f}\n"
    _emit(body, args.out)


def cmd_julia(args):
    w = _parse_complex(args.w, "--w")
    width, height = _split(args.size, "x", "--size", "WxH", (int, int))
    viewport = tuple(_split(args.viewport, ",", "--viewport", "xmin,xmax,ymin,ymax"))
    raster = julia_mod.render(
        w, viewport, width, height, max_iter=args.max_iter, epsilon=args.epsilon
    )
    julia_mod.write_pgm(raster, args.out, mode=args.mode)
    undecided = float(np.mean(raster.basin == julia_mod.BASIN_UNDECIDED))
    print(f"wrote {args.out} ({width}x{height}, undecided {undecided:.2%})", file=sys.stderr)


def cmd_homotopy_check(args):
    map0, map1 = _parse_map(args.map0), _parse_map(args.map1)
    fam = build_homotopy(map0, map1)
    # sup distance between the endpoint map and the member at real w = eta,
    # against the first-order bound eta * sup |d T / d w|
    b = circle_nodes(1.0, 512)
    pts = np.concatenate([fam.r0 * b, b, fam.R0 * b])
    t0 = fam.member(0.0).eval(pts)
    sup_dist = float(np.max(np.abs(t0 - fam.member(fam.eta).eval(pts))))
    # T(w, z) = z^d exp((1-w) Q_0 + w Q_1), so |dT/dw| = |T| |Q_1 - Q_0|
    q1, q0 = (lift.exponent(pts)[0] for lift in (fam.lift1, fam.lift0))
    dT_dw = np.abs(t0) * np.abs(q1 - q0)
    bound = fam.eta * float(dT_dw.max())
    doc = {
        "config": _config_dict(args, map0=to_descriptor(map0), map1=to_descriptor(map1)),
        "degree": fam.d,
        "epsilon": fam.epsilon,
        "eta": fam.eta,
        "annuli": {"r0": fam.r0, "R0": fam.R0, "r1": fam.r1, "R1": fam.R1},
        "margins": {"inner": fam.margin_inner, "outer": fam.margin_outer},
        "sup_distance_at_eta": sup_dist,
        "first_order_bound": bound,
    }
    _emit(json.dumps(doc, indent=1) + "\n", args.out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, an error exit included."""
    top = argparse.ArgumentParser(prog="ruelle", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--map", required=True, help="JSON descriptor (inline or file path)")
        p.add_argument("--annulus", help="r,R override")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="converged eigenvalue sequence")
    common(p)
    p.add_argument("--N", type=int, default=256, help="max truncation order")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--dump-matrix", help="also write the assembled matrix as CSV")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("trace", help="trace by contour, matrix, and closed form")
    common(p)
    p.add_argument("--N", type=int, default=48)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("det", help="Fredholm determinant routes at a point")
    common(p)
    p.add_argument("--z", help="evaluation point re[,im]")
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument(
        "--zeta-scan",
        help="instead scan log|det(I - e^zeta L)| over real zeta lo:hi:count "
        "-> CSV (zeta_re,zeta_im,logabsZ)",
    )
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("scan", help="spectral scan over a parameter grid")
    p.add_argument("--family", choices=("mobius", "homotopy"), default="mobius")
    p.add_argument("--map0", help="homotopy endpoint descriptor")
    p.add_argument("--map1", help="homotopy endpoint descriptor")
    p.add_argument("--grid", required=True, help="lo:hi:count")
    p.add_argument("--annulus", help="r,R override")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("julia", help="filled Julia set raster (PGM)")
    p.add_argument("--w", required=True, help="family parameter re[,im]")
    p.add_argument("--size", default="512x512")
    p.add_argument("--viewport", default="-1.6,1.6,-1.6,1.6")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--mode", choices=("basin", "steps"), default="basin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_julia)

    p = sub.add_parser("homotopy-check", help="certify a homotopy and report margins")
    p.add_argument("--map0", required=True)
    p.add_argument("--map1", required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_homotopy_check)
    for p in sub.choices.values():  # a value such as -0.3,0.1, -1:1:3 or -inf, not an option
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:  # warnings recorded whatever the filters say, printed before any error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                args.func(args)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 2 if caught else 0


if __name__ == "__main__":
    sys.exit(main())
