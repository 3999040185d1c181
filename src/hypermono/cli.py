"""Command-line entry points: classify, monodromy, certify, limitset, lyapunov.

Besides --params and --out, each command takes only the options it
reads (the table ``COMMANDS``):

  classify   --orbifold-order
  monodromy  (none)
  certify    --L --orbifold-order
  limitset   --L --orbifold-order --gap-min --proj --kinds --no-timestamp
  lyapunov   --sig --orbifold-order --T --ntraj --seed --rep --rhs-degrees

An argument @FILE stands for the lines of FILE, one argument per line
(``--params=1/5,2/5,3/5,4/5:0,0,0,0``), read where it stands: a flag given
after it overrides the file's.

Outputs are deterministic given the configuration (seeds included): reruns
produce byte-identical CSV/JSON, and SVG identical up to a timestamp comment
that --no-timestamp suppresses.  Exit codes: 0 success, 2 invalid input (an
@FILE that cannot be read included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import errno
import itertools
import json
import os
import sys

import numpy as np

from . import dynamics, fuchsian, monodromy, params
from ._linalg import singular_gaps
from .monodromy import form_signature

CSV_BLOCK = 8192  # lines joined per write of the limitset CSV and SVG; the whole text is never held


def _mat_json(m):
    m = np.asarray(m)
    return {"shape": list(m.shape), "data": [float(x) for x in m.ravel()]}


def _sig_json(sig):
    return ["inf" if e == fuchsian.INF else int(e) for e in (sig.e0, sig.e1, sig.einf)]


def _parse_params(args) -> params.HypergeomParams:
    if not args.params:
        raise ValueError("no parameters given (use --params)")
    try:
        a, b = args.params.split(":")
    except ValueError as exc:
        raise ValueError("--params expects 'a1,..,an:b1,..,bn'") from exc
    return params.HypergeomParams(a.split(","), b.split(","))


def _parse_sig(text):
    orders = [fuchsian.INF if x.strip() in ("inf", "oo") else int(x) for x in text.split(",")]
    if len(orders) != 3:
        raise ValueError(f"--sig expects three orders 'e0,e1,einf', got {text!r}")
    return fuchsian.OrbifoldSignature(*orders)


def _ball_inputs(args, p):
    sig = fuchsian.orbifold_signature(p, convention=args.orbifold_order)
    std, _ = monodromy.build_rep(p).standardized()
    dom = fuchsian.build_domain(sig)
    gen_mats = {"0": std.h0, "inf": std.hinf}
    orders = {"0": sig.e0, "inf": sig.einf}
    fuchs = {"0": dom.gens["0"], "inf": dom.gens["inf"]}
    return sig, std, gen_mats, orders, fuchs


def _write_lines(fh, lines):
    """Write each line and a newline, ``CSV_BLOCK`` lines per write."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, CSV_BLOCK)):
        fh.write("\n".join(block) + "\n")


@contextlib.contextmanager
def _whole_file(path):
    """A text file that appears at path only if the block ends without an exception.

    It is written as ``path + ".part"``, then renamed over path; a block that
    raises removes it and leaves path as it was.  A path that is a directory,
    which the rename would fail on, is refused before the block runs.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    part = path + ".part"
    try:
        with open(part, "w") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _emit_json(obj, path):
    """Print obj as JSON, and write it to path when one is given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


# --- commands -------------------------------------------------------------------


def cmd_classify(args) -> int:
    p = _parse_params(args)
    report = {
        "alpha": [str(x) for x in p.alpha],
        "beta": [str(x) for x in p.beta],
        "rank": p.rank,
        "self_dual": p.self_dual,
        "hodge_numbers": list(params.hodge_numbers(p)),
    }
    if p.rank == 4 and report["self_dual"]:
        ok, cert = params.satisfies_assumption_a(p)
        report["assumption_a"] = ok
        report["certificate"] = {
            "alpha_class": repr(cert.class_alpha),
            "beta_class": repr(cert.class_beta),
            "hodge": list(cert.hodge),
            "failed_clause": cert.failed_clause,
        }
    if p.rank == 5 and report["self_dual"]:
        report["assumption_b"] = params.satisfies_assumption_b(p)
    try:
        sig = fuchsian.orbifold_signature(p, convention=args.orbifold_order)
        report["orbifold_signature"] = _sig_json(sig)
        report["chi"] = sig.chi
    except ValueError as exc:
        report["orbifold_signature"] = f"unavailable: {exc}"
    _emit_json(report, args.out)
    verdict = report.get("assumption_a", report.get("assumption_b"))
    print(f"# rank {p.rank}, hodge {report['hodge_numbers']}, verdict: {verdict}",
          file=sys.stderr)
    return 0


def cmd_monodromy(args) -> int:
    p = _parse_params(args)
    rep = monodromy.build_rep(p)
    R_A, R_B, R_C = monodromy.reflection_matrices(rep.hinf, rep.h0)
    J = rep.J
    antisymmetric = np.array_equal(J, -J.T)  # J is exactly its (anti)symmetric part
    bundle = {
        "alpha": [str(x) for x in p.alpha],
        "beta": [str(x) for x in p.beta],
        "h0": _mat_json(rep.h0),
        "h1": _mat_json(rep.h1),
        "hinf": _mat_json(rep.hinf),
        "h1_report": monodromy.monodromy_at_one(rep.h0, rep.hinf)[1],
        "R_A": _mat_json(R_A),
        "R_B": _mat_json(R_B),
        "R_C": _mat_json(R_C),
        "reflection_relations": {
            "RC_RB_minus_h0": float(np.linalg.norm(R_C @ R_B - rep.h0)),
            "RC_RA_minus_hinf": float(np.linalg.norm(R_C @ R_A - rep.hinf)),
            "RB_RA_minus_h1": float(np.linalg.norm(R_B @ R_A - rep.h1)),
        },
        "J": _mat_json(J),
        "J_antisymmetric": antisymmetric,
        # reported, not asserted: the printed reflections need not fix J
        "reflection_form_report": {
            name: float(np.linalg.norm(R.T @ J @ R - J) / np.linalg.norm(J))
            for name, R in (("R_A", R_A), ("R_B", R_B), ("R_C", R_C))
        },
    }
    if not antisymmetric:
        bundle["J_signature"] = list(form_signature(J))
    _emit_json(bundle, args.out)
    return 0


def cmd_certify(args) -> int:
    """Log-Anosov certificate of the word ball; with --out, its (dist, gap, word) CSV.

    The ball's SVDs start right after ``enumerate_ball``, as the stream of
    ``singular_gaps``, and run ahead while the distances and the word column
    are built; the CSV then gets one block of rows per chunk as that chunk's
    gaps land.  A run that fails partway (a ``LinAlgError`` in some chunk)
    leaves no CSV and no thread behind.  ``anosov_certificate`` takes the
    collected (dists, gaps).
    """
    p = _parse_params(args)
    sig, std, gen_mats, orders, fuchs = _ball_inputs(args, p)
    ball = dynamics.enumerate_ball(gen_mats, orders, args.L, fuchs_gens=fuchs)
    with contextlib.closing(singular_gaps(ball.mats, top=False)) as chunks:
        dists = dynamics.frobenius_distances(ball)
        if args.out:
            words = ball.unfold("e", lambda s, k, w: f"{s}^{k}" if w == "e" else f"{s}^{k}.{w}")
            gaps, end = [], 0
            with _whole_file(args.out + ".csv") as fh:
                fh.write("dist,gap,word\n")
                for chunk, _ in chunks:
                    start, end = end, end + len(chunk)
                    columns = (map(repr, dists[start:end].tolist()), map(repr, chunk.tolist()),
                               words[start:end])
                    _write_lines(fh, map(",".join, zip(*columns)))
                    gaps.append(chunk)
        else:
            gaps = [chunk for chunk, _ in chunks]
    cert = dynamics.anosov_certificate(dists, np.concatenate(gaps))
    summary = {
        "L": args.L,
        "ball_size": len(ball),
        "eps_hat": cert.eps_hat,
        "c_hat": cert.c_hat,
        "signature": _sig_json(sig),
    }
    _emit_json(summary, args.out and args.out + ".json")
    return 0


def _parse_proj(text):
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([[float(x) for x in r.split(",")] for r in rows])
    if mat.shape != (2, 4) or not np.isfinite(mat).all():
        raise ValueError("projection must be a finite 2x4 matrix: 'a,b,c,d;e,f,g,h'")
    return mat


def _svg_scatter(points, kinds, proj_desc, timestamp):
    """The lines of the SVG scatter; the circles are made as they are read."""
    w = h = 640.0
    pad = 30.0
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(f"<!-- projection: {proj_desc} -->")
    if timestamp:
        lines.append(f"<!-- generated: {datetime.datetime.now().isoformat()} -->")
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(w)}" height="{int(h)}" '
        f'viewBox="0 0 {int(w)} {int(h)}">'
    )
    lines.append(f'<rect width="{int(w)}" height="{int(h)}" fill="white"/>')
    circles = ()
    if len(points):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        scale = min((w - 2 * pad) / span[0], (h - 2 * pad) / span[1])
        px = pad + (points[:, 0] - lo[0]) * scale
        py = h - pad - (points[:, 1] - lo[1]) * scale
        color = np.where(kinds == "attracting", "#1f77b4", "#d62728")
        circles = map(
            '<circle cx="%.2f" cy="%.2f" r="1.4" fill="%s"/>'.__mod__,
            zip(px.tolist(), py.tolist(), color.tolist()),
        )
    return itertools.chain(lines, circles, ["</svg>"])


def cmd_limitset(args) -> int:
    kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
    if not kinds or not kinds <= {"attracting", "cusp"}:
        raise ValueError(f"--kinds takes attracting and cusp, not {args.kinds!r}")
    proj = _parse_proj(args.proj)
    p = _parse_params(args)
    sig, std, gen_mats, orders, fuchs = _ball_inputs(args, p)
    ball = dynamics.enumerate_ball(gen_mats, orders, args.L)
    h1 = std.h1 if "cusp" in kinds else None
    samples = dynamics.limit_curve_samples(ball, args.gap_min, h1=h1)
    keep = np.isin(samples.kinds, list(kinds))
    points, gaps, sample_kinds = samples.points[keep], samples.gaps[keep], samples.kinds[keep]
    columns = [map(repr, col) for col in points.T.tolist()]
    columns += [map(repr, gaps.tolist()), sample_kinds.tolist()]
    csv_lines = itertools.chain(["x0,x1,x2,x3,gap,kind"], map(",".join, zip(*columns)))
    if args.out:
        # the stacked matmul gives proj @ p of each row bit for bit; points @ proj.T does not
        pts2 = (proj[None] @ points[:, :, None])[:, :, 0]
        # nested: the SVG is renamed into place just before the CSV, so neither appears alone
        with _whole_file(args.out + ".csv") as csv, _whole_file(args.out + ".svg") as svg:
            _write_lines(csv, csv_lines)
            _write_lines(svg, _svg_scatter(pts2, sample_kinds, args.proj,
                                           timestamp=not args.no_timestamp))
    else:
        _write_lines(sys.stdout, csv_lines)
    print(f"# {len(points)} samples", file=sys.stderr)
    return 0


def cmd_lyapunov(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is mandatory for stochastic commands")
    degrees = [float(x) for x in args.rhs_degrees.split(",")] if args.rhs_degrees else None
    p = _parse_params(args) if args.params or args.rep == "params" else None
    if p is not None:
        if args.sig:
            raise ValueError("--sig conflicts with --params, whose exponents fix the signature")
        sig = fuchsian.orbifold_signature(p, convention=args.orbifold_order)
    elif args.orbifold_order != "gl":
        raise ValueError("--orbifold-order needs --params, whose exponents it reads")
    elif args.sig:
        sig = _parse_sig(args.sig)
    else:
        sig = fuchsian.OrbifoldSignature(2, 3, fuchsian.INF)
    if args.rep == "params":
        rep_mats = monodromy.reflection_matrices(*monodromy.levelt_matrices(p))
    else:
        rep_mats = [np.array(r).reshape(2, 2) for r in fuchsian.build_domain(sig).reflections]
        if args.rep == "sym3":
            rep_mats = [dynamics.sym_cube(r) for r in rep_mats]
    result = dynamics.lyapunov_mc(rep_mats, sig, args.T, args.ntraj, args.seed)
    out = {
        "rep": args.rep,
        "T": args.T,
        "ntraj": args.ntraj,
        "seed": args.seed,
        "exponents": [float(x) for x in result.exponents],
        "stderr": [float(x) for x in result.stderr],
        "lambda_pair": list(result.nonnegative_pair),
        "n_discarded": result.n_discarded,
        "signature": _sig_json(sig),
    }
    out["comparison"] = dynamics.sum_formula_report(result, sig.chi, rhs_degrees=degrees)
    _emit_json(out, args.out)
    return 0


# --- argument parsing -------------------------------------------------------------


OPTIONS = {
    "--L": dict(type=int, default=8, help="word length of the ball"),
    "--sig": dict(help="signature for --rep fuchsian/sym3 without --params, e.g. '2,3,inf'"),
    "--orbifold-order": dict(choices=("gl", "projective"), default="gl"),
    "--gap-min": dict(type=float, default=2.0, help="least alpha_1-gap of an attracting sample"),
    "--proj": dict(default="1,0,0,0;0,1,0,0", help="2x4 projection of the SVG"),
    "--kinds": dict(default="attracting,cusp", help="limit-sample kinds to keep: attracting,cusp"),
    "--no-timestamp": dict(action="store_true"),
    "--T": dict(type=float, default=1e4, help="geodesic length per trajectory"),
    "--ntraj": dict(type=int, default=50),
    "--seed": dict(type=int),
    "--rep": dict(choices=("params", "fuchsian", "sym3"), default="params"),
    "--rhs-degrees": dict(help="comma list of extension degrees for the sum formula"),
}

COMMANDS = {
    "classify": (cmd_classify, ("--orbifold-order",)),
    "monodromy": (cmd_monodromy, ()),
    "certify": (cmd_certify, ("--L", "--orbifold-order")),
    "limitset": (cmd_limitset, ("--L", "--orbifold-order", "--gap-min", "--proj", "--kinds",
                                "--no-timestamp")),
    "lyapunov": (cmd_lyapunov, ("--sig", "--orbifold-order", "--T", "--ntraj", "--seed",
                                "--rep", "--rhs-degrees")),
}


def _parser():
    parser = argparse.ArgumentParser(prog="hypermono", fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, names) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--params", help="exponents 'a1,..,an:b1,..,bn' (exact 'p/q' or decimals)")
        sp.add_argument("--out", help="output path (or prefix for multi-file commands)")
        for opt in names:
            sp.add_argument(opt, **OPTIONS[opt])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        # first: a LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
