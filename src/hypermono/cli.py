"""Command-line entry points: classify, monodromy, certify, limitset, lyapunov.

Outputs are deterministic given the configuration (seeds included): reruns
produce byte-identical CSV/JSON, and SVG identical up to a timestamp comment
that --no-timestamp suppresses.  Exit codes: 0 success, 2 invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import dynamics, fuchsian, monodromy, params
from .monodromy import form_signature


@dataclass
class RunConfig:
    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    L: int = 8
    gap_min: float = 2.0
    T: float = 1e4
    ntraj: int = 50
    seed: Optional[int] = None
    proj: str = "1,0,0,0;0,1,0,0"
    out: Optional[str] = None
    orbifold_order: str = "gl"
    no_timestamp: bool = False
    rep: str = "params"
    sig: Optional[str] = None
    rhs_degrees: Optional[list] = None
    kinds: str = "attracting,cusp"

    def validate(self):
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        for name in ("gap_min", "T"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ntraj <= 0:
            raise ValueError("ntraj must be positive")
        if self.orbifold_order not in ("gl", "projective"):
            raise ValueError("orbifold-order must be gl or projective")


def _fmt(x):
    """Full-precision float text, shared by CSV and JSON output."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


class _FloatText(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        return super().default(o)


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, cls=_FloatText)


def _mat_json(m):
    m = np.asarray(m)
    return {"shape": list(m.shape), "data": [float(x) for x in m.ravel()]}


def _word_str(word):
    if not word:
        return "e"
    return ".".join(f"{s}^{k}" for s, k in word)


def _parse_params(cfg: RunConfig) -> params.HypergeomParams:
    if not cfg.alpha or not cfg.beta:
        raise ValueError("no parameters given (use --params or a config file)")
    return params.HypergeomParams(cfg.alpha, cfg.beta)


def _signature(cfg: RunConfig, p=None):
    if cfg.sig:
        parts = [x.strip() for x in cfg.sig.split(",")]
        vals = [fuchsian.INF if x in ("inf", "oo") else int(x) for x in parts]
        return fuchsian.OrbifoldSignature(*vals)
    if p is None:
        p = _parse_params(cfg)
    return fuchsian.orbifold_signature(p, convention=cfg.orbifold_order)


def _standardized_rep(p):
    rep = monodromy.build_rep(p)
    if rep.n != 4:
        raise ValueError("dynamics commands need a rank-4 representation")
    std, _ = rep.standardized()
    return rep, std


def _ball_inputs(cfg: RunConfig, p):
    sig = _signature(cfg, p)
    rep, std = _standardized_rep(p)
    dom = fuchsian.build_domain(sig)
    gen_mats = {"0": std.h0, "inf": std.hinf}
    orders = {"0": sig.e0, "inf": sig.einf}
    fuchs = {"0": dom.gens["0"], "inf": dom.gens["inf"]}
    return sig, rep, std, gen_mats, orders, fuchs


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# --- commands -------------------------------------------------------------------


def cmd_classify(cfg: RunConfig) -> int:
    p = _parse_params(cfg)
    report = {
        "alpha": [str(x) for x in p.alpha],
        "beta": [str(x) for x in p.beta],
        "rank": p.rank,
        "self_dual": p.self_dual,
        "hodge_numbers": list(params.hodge_numbers(p)),
    }
    if p.rank == 4 and p.self_dual:
        ok, cert = params.satisfies_assumption_a(p)
        report["assumption_a"] = ok
        report["certificate"] = {
            "alpha_class": repr(cert.class_alpha),
            "beta_class": repr(cert.class_beta),
            "hodge": list(cert.hodge),
            "failed_clause": cert.failed_clause,
        }
    if p.rank == 5 and p.self_dual:
        report["assumption_b"] = params.satisfies_assumption_b(p)
    try:
        sig = fuchsian.orbifold_signature(p, convention=cfg.orbifold_order)
        report["orbifold_signature"] = [
            "inf" if e == fuchsian.INF else int(e) for e in (sig.e0, sig.e1, sig.einf)
        ]
        report["chi"] = sig.chi
    except ValueError as exc:
        report["orbifold_signature"] = f"unavailable: {exc}"
    text = _json_dumps(report)
    if cfg.out:
        _write(cfg.out, text + "\n")
    print(text)
    verdict = report.get("assumption_a", report.get("assumption_b"))
    print(f"# rank {p.rank}, hodge {report['hodge_numbers']}, verdict: {verdict}",
          file=sys.stderr)
    return 0


def cmd_monodromy(cfg: RunConfig) -> int:
    p = _parse_params(cfg)
    rep = monodromy.build_rep(p)
    bundle = {
        "alpha": [str(x) for x in p.alpha],
        "beta": [str(x) for x in p.beta],
        "h0": _mat_json(rep.h0),
        "h1": _mat_json(rep.h1),
        "hinf": _mat_json(rep.hinf),
        "h1_report": rep.h1_report,
    }
    if rep.R_A is not None:
        bundle["R_A"] = _mat_json(rep.R_A)
        bundle["R_B"] = _mat_json(rep.R_B)
        bundle["R_C"] = _mat_json(rep.R_C)
        relations = {
            "RC_RB_minus_h0": float(np.linalg.norm(rep.R_C @ rep.R_B - rep.h0)),
            "RC_RA_minus_hinf": float(np.linalg.norm(rep.R_C @ rep.R_A - rep.hinf)),
            "RB_RA_minus_h1": float(np.linalg.norm(rep.R_B @ rep.R_A - rep.h1)),
        }
        bundle["reflection_relations"] = relations
    if rep.J is not None:
        bundle["J"] = _mat_json(rep.J)
        sym = float(np.linalg.norm(rep.J + rep.J.T)) < 1e-9 * float(np.linalg.norm(rep.J))
        bundle["J_antisymmetric"] = bool(sym)
        if not sym:
            bundle["J_signature"] = list(form_signature(rep.J))
        if rep.R_A is not None:
            # reported, not asserted: the printed reflections need not fix J
            bundle["reflection_form_report"] = {
                name: float(np.linalg.norm(R.T @ rep.J @ R - rep.J) / np.linalg.norm(rep.J))
                for name, R in (("R_A", rep.R_A), ("R_B", rep.R_B), ("R_C", rep.R_C))
            }
    text = _json_dumps(bundle)
    if cfg.out:
        _write(cfg.out, text + "\n")
    print(text)
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    p = _parse_params(cfg)
    sig, rep, std, gen_mats, orders, fuchs = _ball_inputs(cfg, p)
    ball = dynamics.enumerate_ball(gen_mats, orders, cfg.L, fuchs_gens=fuchs)
    cert = dynamics.anosov_certificate(ball)
    rows = ["dist,gap,word"]
    for d, g, w in zip(cert.dists, cert.gaps, cert.words):
        rows.append(f"{_fmt(float(d))},{_fmt(float(g))},{_word_str(w)}")
    csv_text = "\n".join(rows) + "\n"
    summary = {
        "L": cfg.L,
        "ball_size": len(ball),
        "eps_hat": cert.eps_hat,
        "c_hat": cert.c_hat,
        "signature": ["inf" if e == fuchsian.INF else int(e) for e in (sig.e0, sig.e1, sig.einf)],
    }
    json_text = _json_dumps(summary)
    if cfg.out:
        _write(cfg.out + ".csv", csv_text)
        _write(cfg.out + ".json", json_text + "\n")
    print(json_text)
    return 0


def _parse_proj(text):
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([[float(x) for x in r.split(",")] for r in rows])
    if mat.shape != (2, 4):
        raise ValueError("projection must be a 2x4 matrix: 'a,b,c,d;e,f,g,h'")
    return mat


def _svg_scatter(points, kinds, proj_desc, timestamp):
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
    if len(points):
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        scale = min((w - 2 * pad) / span[0], (h - 2 * pad) / span[1])
        for (x, y), kind in zip(pts, kinds):
            px = pad + (x - lo[0]) * scale
            py = h - pad - (y - lo[1]) * scale
            color = "#1f77b4" if kind == "attracting" else "#d62728"
            lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.4" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_limitset(cfg: RunConfig) -> int:
    p = _parse_params(cfg)
    sig, rep, std, gen_mats, orders, fuchs = _ball_inputs(cfg, p)
    ball = dynamics.enumerate_ball(gen_mats, orders, cfg.L)
    kinds = {k.strip() for k in cfg.kinds.split(",") if k.strip()}
    h1 = std.h1 if "cusp" in kinds else None
    samples = dynamics.limit_curve_samples(ball, cfg.gap_min, h1=h1)
    samples = [s for s in samples if s.kind in kinds]
    rows = ["x0,x1,x2,x3,gap,kind"]
    for s in samples:
        coords = ",".join(_fmt(float(x)) for x in s.point)
        rows.append(f"{coords},{_fmt(s.gap)},{s.kind}")
    csv_text = "\n".join(rows) + "\n"
    proj = _parse_proj(cfg.proj)
    pts2 = [proj @ s.point for s in samples]
    svg_text = _svg_scatter(
        pts2,
        [s.kind for s in samples],
        cfg.proj,
        timestamp=not cfg.no_timestamp,
    )
    if cfg.out:
        _write(cfg.out + ".csv", csv_text)
        _write(cfg.out + ".svg", svg_text)
    else:
        print(csv_text, end="")
    print(f"# {len(samples)} samples", file=sys.stderr)
    return 0


def cmd_lyapunov(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ValueError("--seed is mandatory for stochastic commands")
    if cfg.rep == "params":
        p = _parse_params(cfg)
        sig = _signature(cfg, p)
        _, std = _standardized_rep(p)
        rep_mats = {"0": std.h0, "1": std.h1}
    else:
        sig = _signature(cfg, None) if cfg.sig else fuchsian.OrbifoldSignature(2, 3, fuchsian.INF)
        dom = fuchsian.build_domain(sig)
        g0 = np.array(dom.gamma0).reshape(2, 2)
        g1 = np.array(dom.gamma1).reshape(2, 2)
        if cfg.rep == "fuchsian":
            rep_mats = {"0": g0, "1": g1}
        elif cfg.rep == "sym3":
            rep_mats = {"0": dynamics.sym_cube(g0), "1": dynamics.sym_cube(g1)}
        else:
            raise ValueError("rep must be one of params, fuchsian, sym3")
    result = dynamics.lyapunov_mc(rep_mats, sig, cfg.T, cfg.ntraj, cfg.seed)
    out = {
        "rep": cfg.rep,
        "T": cfg.T,
        "ntraj": cfg.ntraj,
        "seed": cfg.seed,
        "exponents": [float(x) for x in result.exponents],
        "stderr": [float(x) for x in result.stderr],
        "lambda_pair": list(result.nonnegative_pair),
        "n_discarded": result.n_discarded,
        "signature": ["inf" if e == fuchsian.INF else int(e) for e in (sig.e0, sig.e1, sig.einf)],
    }
    out["comparison"] = dynamics.sum_formula_report(
        result, sig.chi, rhs_degrees=cfg.rhs_degrees
    )
    text = _json_dumps(out)
    if cfg.out:
        _write(cfg.out, text + "\n")
    print(text)
    return 0


# --- argument plumbing ------------------------------------------------------------


def _split_params(text):
    try:
        a, b = text.split(":")
        return [x.strip() for x in a.split(",")], [x.strip() for x in b.split(",")]
    except ValueError as exc:
        raise ValueError("--params expects 'a1,..,an:b1,..,bn'") from exc


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = yaml.safe_load(fh) or {}
        prm = data.get("params", {})
        cfg.alpha = [str(x) for x in prm.get("alpha", [])]
        cfg.beta = [str(x) for x in prm.get("beta", [])]
        for key, val in (data.get("options") or {}).items():
            key = key.replace("-", "_")
            if hasattr(cfg, key):
                setattr(cfg, key, val)
    if getattr(args, "params", None):
        cfg.alpha, cfg.beta = _split_params(args.params)
    for key in (
        "L", "gap_min", "T", "ntraj", "seed", "proj", "out",
        "orbifold_order", "no_timestamp", "rep", "sig", "kinds",
    ):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            setattr(cfg, key, val)
    if getattr(args, "rhs_degrees", None):
        cfg.rhs_degrees = [float(x) for x in args.rhs_degrees.split(",")]
    cfg.validate()
    return cfg


def _add_common(sp):
    sp.add_argument("--params", help="exponents 'a1,..,an:b1,..,bn' (exact 'p/q' or decimals)")
    sp.add_argument("--config", help="YAML config file")
    sp.add_argument("--out", help="output path (or prefix for multi-file commands)")
    sp.add_argument("--orbifold-order", dest="orbifold_order", choices=("gl", "projective"))
    sp.add_argument("--L", type=int)
    sp.add_argument("--gap-min", dest="gap_min", type=float)
    sp.add_argument("--T", type=float)
    sp.add_argument("--ntraj", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--proj")
    sp.add_argument("--sig", help="override orbifold signature, e.g. '2,3,inf'")
    sp.add_argument("--no-timestamp", dest="no_timestamp", action="store_true", default=None)
    sp.add_argument("--kinds", help="limit-sample kinds to keep: attracting,cusp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hypermono")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify": cmd_classify,
        "monodromy": cmd_monodromy,
        "certify": cmd_certify,
        "limitset": cmd_limitset,
        "lyapunov": cmd_lyapunov,
    }
    for name in commands:
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "lyapunov":
            sp.add_argument("--rep", choices=("params", "fuchsian", "sym3"))
            sp.add_argument("--rhs-degrees", dest="rhs_degrees",
                            help="comma list of extension degrees for the sum formula")
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return commands[args.command](cfg)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
