"""Command-line front end: load assemblages/states from JSON, dispatch the
analyses, emit JSON reports (stdout or --output) with a human summary on
stderr.  Exit codes: 0 success, 2 validation error, 3 solver failure."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, coexist, corpus, incompat, jsonio, linalg, sdp, steering, subspace
from .povm import Assemblage, truncate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

WITNESS_TOL = 1e-7  # witness value above 1 + this certifies incompatibility


class CliError(Exception):
    """Validation-level failure; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# plumbing


def _resolve_seed(args) -> int:
    """--seed, else the INCOMPAT_SEED environment variable, else 0; a
    negative seed is refused, naming where it came from."""
    seed = getattr(args, "seed", None)
    if seed is not None:
        return _at_least("--seed", int(seed), 0)
    env = os.environ.get("INCOMPAT_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise CliError(f"INCOMPAT_SEED must be an integer, got {env!r}") from exc
        return _at_least("INCOMPAT_SEED", value, 0)
    return 0


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise CliError(f"{flag} must be at least {low}, got {value}")
    return value


_PARSERS = {
    "assemblage": jsonio.assemblage_from_json,
    "state": jsonio.state_from_json,
    "state_assemblage": jsonio.state_assemblage_from_json,
}


def _infer_kind(data) -> str:
    if not isinstance(data, dict):
        raise CliError("input must be a JSON object")
    if "kind" in data:
        return str(data["kind"])
    if "measurements" in data:
        return "assemblage"
    if "sigmas" in data:
        return "state_assemblage"
    if "matrix" in data and "dA" in data:
        return "state"
    raise CliError(
        "cannot determine the input kind (expected assemblage, state or "
        "state_assemblage fields)"
    )


def _hash_builtin(key: str) -> str:
    payload = json.dumps(corpus.to_json(key), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _load_from(builtin: str | None, path: str | None, kinds: tuple[str, ...], flags: str):
    """Load one instance addressed by a builtin key or a JSON file path,
    given by the two flags named in ``flags``.

    Returns (object, kind, {input label: sha256}).
    """
    if (builtin is None) == (path is None):
        raise CliError(f"exactly one of {flags} is required")
    if builtin is not None:
        if builtin not in corpus.CORPUS:
            raise CliError(
                f"unknown builtin {builtin!r}; available: "
                + ", ".join(corpus.builtin_keys())
            )
        kind = corpus.kind_of(builtin)
        if kind not in kinds:
            raise CliError(
                f"builtin {builtin!r} holds a {kind}; this command needs "
                + " or ".join(kinds)
            )
        return corpus.build(builtin), kind, {f"builtin:{builtin}": _hash_builtin(builtin)}
    data = jsonio.load_json(path)
    kind = _infer_kind(data)
    if kind not in kinds:
        raise CliError(f"{path} holds a {kind}; this command needs " + " or ".join(kinds))
    return _PARSERS[kind](data), kind, {path: jsonio.sha256_file(path)}


def _load(args, kinds: tuple[str, ...]):
    return _load_from(getattr(args, "builtin", None), getattr(args, "input", None), kinds,
                      "--input and --builtin")


def _jsonable(x):
    """Recursively convert report values to JSON-serialisable types."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return jsonio.matrix_to_json(x) if x.ndim == 2 else jsonio.vector_to_json(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def _emit(args, report: dict, summary: str) -> int:
    text = json.dumps(_jsonable(report), indent=1, sort_keys=True) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return EXIT_OK


def _solver_stats(sol: sdp.SdpSolution | None):
    if sol is None:
        return None
    return {
        "status": sol.status,
        "iterations": sol.iterations,
        "gap": sol.gap,
        "residual_primal": sol.residual_primal,
        "residual_dual": sol.residual_dual,
    }


def _projector_json(p: linalg.Projector) -> dict:
    return {
        "rank": p.rank,
        "basis": [jsonio.vector_to_json(p.basis[:, k]) for k in range(p.rank)],
    }


def _witness_json(w: incompat.Witness) -> dict:
    return {
        "value": w.value,
        "incompatible": bool(w.value > 1.0 + WITNESS_TOL),
        "X": [jsonio.matrix_to_json(m) for m in w.X],
        "Y": [jsonio.matrix_to_json(m) for m in w.Y],
        "N": jsonio.matrix_to_json(w.N),
    }


def _pair(a: Assemblage):
    if a.n_settings != 2:
        raise CliError(f"this command needs exactly two measurements, got {a.n_settings}")
    return a.measurements[0], a.measurements[1]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_robustness(args) -> int:
    a, _, inputs = _load(args, ("assemblage",))
    res = incompat.depolarising_robustness(a)
    rep = jsonio.report_skeleton("robustness", None, inputs)
    rep["results"] = {
        "eta": res.eta,
        "verdict": res.verdict,
        "parent": jsonio.parent_to_json(res.parent) if res.parent is not None else None,
        "solver": _solver_stats(res.solution),
    }
    return _emit(args, rep, f"eta = {res.eta:.8f}  verdict = {res.verdict}")


def _cmd_jm(args) -> int:
    a, _, inputs = _load(args, ("assemblage",))
    res = incompat.jm_parent(a)
    rep = jsonio.report_skeleton("jm", None, inputs)
    rep["results"] = {
        "feasible": res.feasible,
        "slack": res.slack,
        "parent": jsonio.parent_to_json(res.parent) if res.parent is not None else None,
    }
    return _emit(
        args, rep, f"jointly measurable = {res.feasible}  (slack = {res.slack:.3e})"
    )


def _cmd_witness(args) -> int:
    a, _, inputs = _load(args, ("assemblage",))
    m0, m1 = _pair(a)
    w = incompat.witness(m0, m1)
    rep = jsonio.report_skeleton("witness", None, inputs)
    rep["results"] = _witness_json(w)
    verdict = "incompatible" if w.value > 1.0 + WITNESS_TOL else "no violation"
    return _emit(args, rep, f"witness value = {w.value:.8f}  ({verdict})")


def _cmd_coexistence(args) -> int:
    a, _, inputs = _load(args, ("assemblage",))
    rep = jsonio.report_skeleton("coexistence", None, inputs)
    if getattr(args, "builtin", None) == "qubit-counterexample":
        # the flagship instance gets its dedicated full report (linear
        # dependence, Gram rank, coarse-grained variant, all pairings)
        _at, _bt, _coarse, results = coexist.qubit_counterexample()
        rep["results"] = results
        summary = (
            f"coexistent = {results['coexistent']['coexistent']}  "
            f"jm = {results['jm']['feasible']}  "
            f"coarse eta = {results['coarse']['eta']:.5f}"
        )
        return _emit(args, rep, summary)
    m0, m1 = _pair(a)
    co = coexist.coexistent_parent(m0, m1)
    jm = incompat.jm_parent(a)
    rob = incompat.depolarising_robustness(a)
    rep["results"] = {
        "coexistent": co.coexistent,
        "slack": co.slack,
        "method": co.method,
        "jm": {"feasible": jm.feasible, "slack": jm.slack},
        "robustness": {"eta": rob.eta, "verdict": rob.verdict},
    }
    return _emit(
        args,
        rep,
        f"coexistent = {co.coexistent}  jm = {jm.feasible}  eta = {rob.eta:.8f}",
    )


def _cmd_seesaw(args) -> int:
    _at_least("--dim", args.dim, 1)
    for m in args.outcomes:
        _at_least("--outcomes", m, 1)
    _at_least("--seeds", args.seeds, 0)
    max_iters = _at_least("--max-iters", args.max_iters, 1)
    hits = coexist.seesaw(args.dim, args.outcomes[0], args.outcomes[1], args.seeds, max_iters)
    rep = jsonio.report_skeleton("seesaw", None, {})
    hit_rows = []
    for h in hits:
        pair = Assemblage(args.dim, [h.a1, h.a2])
        hit_rows.append(
            {
                "seed": h.seed,
                "witness_value": h.witness_value,
                "iterations": h.iterations,
                "coexistence_slack": h.coexistence_slack,
                "jm_slack": h.jm_slack,
                "assemblage": jsonio.assemblage_to_json(pair),
                "witness": _witness_json(h.witness),
            }
        )
    rep["results"] = {
        "dim": args.dim,
        "outcomes": list(args.outcomes),
        "seeds": args.seeds,
        "max_iters": args.max_iters,
        "hits": hit_rows,
    }
    return _emit(
        args,
        rep,
        f"{len(hits)} coexistent-but-incompatible pair(s) in {args.seeds} seeds",
    )


def _parse_coords(text: str, dim: int) -> list[np.ndarray]:
    try:
        idx = sorted(int(t) for t in text.split(","))
    except ValueError as exc:
        raise CliError(f"--coords must be comma-separated integers, got {text!r}") from exc
    if not idx or not all(0 <= k < dim for k in idx):
        raise CliError(f"--coords indices must lie in [0, {dim})")
    if len(set(idx)) < len(idx):
        raise CliError(f"--coords indices must be distinct, got {text!r}")
    eye = np.eye(dim, dtype=complex)
    return [eye[:, k] for k in idx]


def _parse_basis_file(path: str) -> list[np.ndarray]:
    data = jsonio.load_json(path)
    if isinstance(data, dict):
        data = data.get("basis", data)
    if not isinstance(data, list) or not data:
        raise CliError(f"{path}: expected a JSON list of complex vectors")
    vectors = []
    for vec in data:
        try:
            vectors.append(np.array([complex(re, im) for re, im in vec]))
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}: vectors must be lists of [re, im] pairs") from exc
    return vectors


def _cmd_truncate(args) -> int:
    a, _, inputs = _load(args, ("assemblage",))
    if (args.coords is None) == (args.basis is None):
        raise CliError("exactly one of --coords and --basis is required")
    if args.coords is not None:
        vectors = _parse_coords(args.coords, a.dim)
    else:
        vectors = _parse_basis_file(args.basis)
        inputs[args.basis] = jsonio.sha256_file(args.basis)
    p = linalg.projector_from_basis(vectors)
    if p.dim != a.dim:
        raise CliError(f"projector lives on dimension {p.dim}, assemblage on {a.dim}")
    t = truncate(a, p)
    rob = incompat.depolarising_robustness(t)
    rep = jsonio.report_skeleton("truncate", None, inputs)
    rep["results"] = {
        "projector": _projector_json(p),
        "truncated": jsonio.assemblage_to_json(t),
        "robustness": {"eta": rob.eta, "verdict": rob.verdict},
    }
    return _emit(
        args,
        rep,
        f"truncated to n = {p.rank}:  eta = {rob.eta:.8f}  verdict = {rob.verdict}",
    )


def _cmd_classify(args) -> int:
    samples = _at_least("--samples", args.samples, 0)
    jobs = _at_least("--jobs", args.jobs, 1)
    a, _, inputs = _load(args, ("assemblage",))
    seed = _resolve_seed(args)
    report = subspace.classify(a, args.n, samples, seed=seed, jobs=jobs)
    rep = jsonio.report_skeleton("classify", seed, inputs)
    rep["results"] = {
        "n": report.n,
        "samples": report.samples,
        "verdict": report.verdict,
        "full_eta": report.full_eta,
        "evidence_note": report.evidence_note,
        "records": report.records,
        "witnesses": {k: _projector_json(p) for k, p in report.witnesses.items()},
    }
    return _emit(
        args,
        rep,
        f"verdict = {report.verdict}  (full eta = {report.full_eta:.8f}, "
        f"{report.samples} samples + probes)",
    )


def _cmd_steering_lhs(args) -> int:
    sa, _, inputs = _load(args, ("state_assemblage",))
    feasible, slack, strategies, states = incompat.labelled_parent(sa.dB, sa.sigmas)
    model = None if states is None else [
        {"strategy": list(vec), "state": jsonio.matrix_to_json(s)} for vec, s in zip(strategies, states)
    ]
    rep = jsonio.report_skeleton("steering-lhs", None, inputs)
    rep["results"] = {"unsteerable": feasible, "slack": slack, "model": model}
    verdict = "unsteerable" if feasible else "steerable"
    return _emit(args, rep, f"{verdict}  (LHS slack = {slack:.3e})")


def _cmd_steering_pretty_good(args) -> int:
    sa, _, inputs = _load(args, ("state_assemblage",))
    pg = steering.pretty_good(sa)
    rob = incompat.depolarising_robustness(pg)
    rep = jsonio.report_skeleton("steering-pretty-good", None, inputs)
    rep["results"] = {
        "dim": pg.dim,
        "assemblage": jsonio.assemblage_to_json(pg),
        "robustness": {"eta": rob.eta, "verdict": rob.verdict},
    }
    return _emit(
        args,
        rep,
        f"pretty-good measurements on dim {pg.dim}:  eta = {rob.eta:.8f}  "
        f"verdict = {rob.verdict}",
    )


def _cmd_steering_choi(args) -> int:
    rho, _, inputs = _load(args, ("state",))
    alice, _, alice_inputs = _load_from(args.alice_builtin, args.alice_input, ("assemblage",),
                                        "--alice-input and --alice-builtin")
    inputs.update({f"alice:{k}": v for k, v in alice_inputs.items()})
    if alice.dim != rho.dA:
        raise CliError(
            f"Alice measurements live on dimension {alice.dim}, state side A is {rho.dA}"
        )
    out = steering.choi_apply(rho, alice)
    rep = jsonio.report_skeleton("steering-choi", None, inputs)
    rep["results"] = {"dim": out.dim, "assemblage": jsonio.assemblage_to_json(out)}
    return _emit(args, rep, f"channel image on dim {out.dim} emitted")


def _cmd_peres_construct(args) -> int:
    rho, params = steering.peres_state(args.m1, args.m2)
    pt = linalg.partial_transpose(rho.matrix, (rho.dA, rho.dB), side="A")
    rep = jsonio.report_skeleton("peres-construct", None, {})
    rep["results"] = {
        "params": {
            "m1": params.m1, "m2": params.m2, "m3": params.m3,
            "l1": params.l1, "l2": params.l2, "l3": params.l3,
        },
        "pt_residual": float(np.abs(pt - rho.matrix).max()),
        "state": jsonio.state_to_json(rho),
    }
    return _emit(
        args,
        rep,
        f"state built at (m1, m2) = ({args.m1}, {args.m2});  "
        f"PT residual = {rep['results']['pt_residual']:.3e}",
    )


def _cmd_peres_scan(args) -> int:
    points = steering.peres_scan(args.step)
    adm = [p for p in points if p.admissible]
    steer = [p for p in adm if p.steerable]
    rep = jsonio.report_skeleton("peres-scan", None, {})
    results = {
        "step": args.step,
        "n_points": len(points),
        "n_admissible": len(adm),
        "n_steerable": len(steer),
        "steerable_points": [{"m1": p.m1, "m2": p.m2} for p in steer],
    }
    if args.full:
        results["points"] = [
            {
                "m1": p.m1,
                "m2": p.m2,
                "admissible": p.admissible,
                "steerable": p.steerable,
                "reason": p.reason,
            }
            for p in points
        ]
    rep["results"] = results
    return _emit(
        args,
        rep,
        f"{len(adm)} admissible of {len(points)} grid points; "
        f"{len(steer)} steerable",
    )


def _cmd_integrals(args) -> int:
    seed = _resolve_seed(args)
    results = subspace.integral_identities_check(args.d, args.n, args.samples, seed=seed)
    rep = jsonio.report_skeleton("integrals", seed, {})
    rep["results"] = results
    worst = max(v["max_rel_error"] for v in results["identities"].values())
    return _emit(
        args,
        rep,
        f"max relative error = {worst:.4f}  "
        f"all within 3 sigma = {results['all_within_3_sigma']}",
    )


def _cmd_mub_check(args) -> int:
    results = subspace.mub_same_povm_check()
    rep = jsonio.report_skeleton("mub-check", None, {})
    rep["results"] = results
    return _emit(
        args,
        rep,
        f"same POVM = {results['same_povm']}  (residual = {results['residual']:.2e});  "
        f"truncated verdict = {results['truncated_verdict']}",
    )


def _cmd_corpus(args) -> int:
    if args.list:
        rep = jsonio.report_skeleton("corpus", None, {})
        rep["results"] = {
            "builtins": {k: {"kind": corpus.kind_of(k), "description": corpus.CORPUS[k][2]}
                         for k in corpus.builtin_keys()}
        }
        return _emit(args, rep, "\n".join(corpus.builtin_keys()))
    paths = corpus.write_corpus(args.out)
    rep = jsonio.report_skeleton("corpus", None, {})
    rep["results"] = {"written": paths}
    return _emit(args, rep, f"wrote {len(paths)} corpus files to {args.out}/")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subincompat",
        description="Measurement incompatibility in subspaces: SDP quantifiers, "
        "truncation and classification, coexistence, steering.",
    )
    parser.add_argument("--version", action="version", version=f"subincompat {__version__}")

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--input", help="path to an instance JSON file")
    io_p.add_argument("--builtin", help="builtin corpus key (see `corpus --list`)")
    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--output", help="write the JSON report here instead of stdout")
    seed_p = argparse.ArgumentParser(add_help=False)
    seed_p.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (default: INCOMPAT_SEED environment variable, else 0)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("robustness", parents=[io_p, out_p],
                       help="depolarising incompatibility robustness eta")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("jm", parents=[io_p, out_p],
                       help="joint-measurability feasibility and parent POVM")
    p.set_defaults(func=_cmd_jm)

    p = sub.add_parser("witness", parents=[io_p, out_p],
                       help="incompatibility witness value for a pair")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("coexistence", parents=[io_p, out_p],
                       help="coexistence of a pair, with jm and robustness")
    p.set_defaults(func=_cmd_coexistence)

    p = sub.add_parser("seesaw", parents=[out_p],
                       help="search for coexistent-but-incompatible pairs")
    p.add_argument("--dim", type=int, required=True, help="Hilbert space dimension")
    p.add_argument("--outcomes", type=int, nargs=2, required=True,
                   metavar=("MA", "MB"), help="outcome counts of the two POVMs")
    p.add_argument("--seeds", type=int, default=50, help="number of seeds (default 50)")
    p.add_argument("--max-iters", type=int, default=200,
                   help="seesaw iteration cap per seed (default 200)")
    p.set_defaults(func=_cmd_seesaw)

    p = sub.add_parser("truncate", parents=[io_p, out_p],
                       help="truncate an assemblage to a subspace")
    p.add_argument("--coords", help="comma-separated coordinate axes, e.g. 0,1")
    p.add_argument("--basis", help="JSON file with subspace basis vectors as [re,im] pairs")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("classify", parents=[io_p, out_p, seed_p],
                       help="compressibility classification over n-dim subspaces")
    p.add_argument("--n", type=int, required=True, help="subspace dimension")
    p.add_argument("--samples", type=int, default=50,
                   help="Haar-random subspaces to test (default 50)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    p.set_defaults(func=_cmd_classify)

    steer = sub.add_parser("steering", help="steering assemblage analyses")
    steer_sub = steer.add_subparsers(dest="mode", required=True)
    p = steer_sub.add_parser("lhs", parents=[io_p, out_p],
                             help="local-hidden-state feasibility")
    p.set_defaults(func=_cmd_steering_lhs)
    p = steer_sub.add_parser("pretty-good", parents=[io_p, out_p],
                             help="pretty-good measurements and their robustness")
    p.set_defaults(func=_cmd_steering_pretty_good)
    p = steer_sub.add_parser("choi", parents=[io_p, out_p],
                             help="apply the state's induced channel to Alice measurements")
    p.add_argument("--alice-input", help="path to Alice's assemblage JSON")
    p.add_argument("--alice-builtin", help="builtin key for Alice's assemblage")
    p.set_defaults(func=_cmd_steering_choi)

    peres = sub.add_parser("peres", help="PT-invariant bound-entangled family")
    peres_sub = peres.add_subparsers(dest="mode", required=True)
    p = peres_sub.add_parser("construct", parents=[out_p],
                             help="build the state at given (m1, m2)")
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.set_defaults(func=_cmd_peres_construct)
    p = peres_sub.add_parser("scan", parents=[out_p],
                             help="grid scan for steerable points")
    p.add_argument("--step", type=float, default=0.02, help="grid spacing (default 0.02)")
    p.add_argument("--full", action="store_true",
                   help="include every grid point in the report")
    p.set_defaults(func=_cmd_peres_scan)

    p = sub.add_parser("integrals", parents=[out_p, seed_p],
                       help="Monte Carlo check of the subspace-average identities")
    p.add_argument("--d", type=int, default=3, help="space dimension (default 3)")
    p.add_argument("--n", type=int, default=2, help="subspace dimension (default 2)")
    p.add_argument("--samples", type=int, default=20000,
                   help="Monte Carlo samples (default 20000)")
    p.set_defaults(func=_cmd_integrals)

    p = sub.add_parser("mub-check", parents=[out_p],
                       help="two qutrit MUBs that truncate to the same POVM")
    p.set_defaults(func=_cmd_mub_check)

    p = sub.add_parser("corpus", parents=[out_p],
                       help="write the builtin corpus to JSON files")
    p.add_argument("--out", default="corpus", help="target directory (default corpus/)")
    p.add_argument("--list", action="store_true", help="list builtin keys instead")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except sdp.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
