"""Command-line surface: validate, coherence, verify, search, generate, sample.

Exit codes are a stable contract: 0 success, 1 structural/parameter error,
2 hypothesis failure, 3 no admissible signal, 4 search guard exceeded.
Every emitted report embeds its full run manifest so reruns are
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .admissible import FAMILIES, admissible_space, generate, sample_admissible
from .bounds import verify_fkdb, verify_fskpb
from .coherence import coherence_profile, gram, sub_coherence
from .config import ETA, ETA_HYP, GUARD, TOL_CERT, TOL_FP, TOL_RANK
from .errors import ParameterError, SparseBoundsError, StructuralError
from .oracle import min_sparsity_product
from .serialization import (
    _system_from_document,
    bisystem_from_dict,
    bisystem_to_dict,
    canonical_json,
    load_json,
    load_system,
    signal_from_dict,
    signal_to_dict,
)
from .systems import validate_pairing

SEED_ENV = "SPARSEBOUNDS_SEED"


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"${SEED_ENV} must be an integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input error; argparse's own 2 is
    the hypothesis-failure code here."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def _tolerance(text: str) -> float:
    """argparse type of every tolerance flag: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


_TOLERANCES = {
    "--eta": (ETA, "zero threshold for l0"),
    "--eta-hyp": (ETA_HYP, "slack of the |f_j(tau_j)| >= 1 check"),
    "--tol-fp": (TOL_FP, "fixed-point residual tolerance"),
    "--tol-cert": (TOL_CERT, "certificate comparison slack"),
    "--tol-rank": (TOL_RANK, "null-space rank cutoff"),
}


def _add_tolerances(parser, *flags):
    for flag in flags:
        default, help_text = _TOLERANCES[flag]
        parser.add_argument(flag, type=_tolerance, default=default, help=help_text)


def _add_bisystem_source(parser):
    parser.add_argument("--bisystem", help="bisystem JSON file")
    parser.add_argument("--descriptor", help="family descriptor JSON file")
    parser.add_argument("--family", choices=FAMILIES, help="generated family name")
    parser.add_argument("--d", type=int, help="ambient dimension")
    parser.add_argument("--angle", type=float, help="rotation angle in degrees")
    parser.add_argument("--split", type=int, help="subspace dimension for subspace_union")
    parser.add_argument("--magnitude", type=float, help="perturbation magnitude")
    parser.add_argument("--base", choices=FAMILIES, help="base family for perturbed")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"generation seed (default: ${SEED_ENV} or 0)")


def _family_descriptor(args) -> dict:
    if args.descriptor:
        doc = load_json(args.descriptor)
        if not isinstance(doc, dict) or "family" not in doc:
            raise StructuralError("descriptor file needs a JSON object with a 'family' key")
        try:
            seed = int(doc.get("seed", 0))
        except (TypeError, ValueError):
            raise ParameterError(f"descriptor seed must be an integer, got {doc['seed']!r}")
        return {"family": doc["family"], "params": doc.get("params", {}), "seed": seed}
    if not args.family:
        raise ParameterError("provide --bisystem, --descriptor, or --family")
    seed = args.seed if args.seed is not None else _default_seed()
    params = {}
    for key in ("d", "angle", "split", "magnitude"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.family == "perturbed":
        if not args.base:
            raise ParameterError("perturbed needs --base naming the base family")
        base_params = {k: params[k] for k in ("d", "angle", "split") if k in params}
        params = {
            "base": {"family": args.base, "params": base_params, "seed": seed},
            "magnitude": params.get("magnitude", 0.05),
        }
    return {"family": args.family, "params": params, "seed": seed}


def _resolve_bisystem(args) -> tuple:
    """Returns (BiSystem, manifest inputs entry)."""
    if args.bisystem:
        return bisystem_from_dict(load_json(args.bisystem)), {"bisystem": args.bisystem}
    desc = _family_descriptor(args)
    return generate(desc["family"], desc["params"], desc["seed"]), {"descriptor": desc}


def _manifest(command: str, inputs: dict, parameters: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "version": __version__,
    }


def _emit(document: dict, args) -> None:
    text = canonical_json(document)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    if getattr(args, "format", "json") == "table":
        for line in _table_lines(document):
            print(line)
    else:
        sys.stdout.write(text)


def _table_lines(document, prefix=""):
    scalars, nested = [], []
    for key in sorted(document):
        value = document[key]
        if isinstance(value, dict):
            nested.append(key)
        elif isinstance(value, list):
            scalars.append((key, f"[{len(value)} entries]"))
        else:
            scalars.append((key, value))
    width = max((len(prefix + k) for k, _ in scalars), default=0)
    for key, value in scalars:
        yield f"{prefix + key:<{width}}  {value}"
    for key in nested:
        yield f"{prefix}{key}:"
        yield from _table_lines(document[key], prefix + "  ")


def cmd_validate(args) -> int:
    system = load_system(args.system)
    report = validate_pairing(system, args.eta_hyp)
    document = {
        "diagonals": [float(v) for v in report.diagonals],
        "per_index_ok": [bool(v) for v in report.per_index_ok],
        "ok": report.ok,
        "tolerance": report.tolerance,
        "manifest": _manifest("validate", {"system": args.system},
                              {"eta_hyp": args.eta_hyp}),
    }
    _emit(document, args)
    return 0 if report.ok else 2


def cmd_coherence(args) -> int:
    doc = load_json(args.input)
    if not isinstance(doc, dict):
        raise StructuralError(f"{args.input} must hold a JSON object")
    if "first" in doc and "second" in doc:
        body = coherence_profile(bisystem_from_dict(doc)).as_dict()
    else:
        system = _system_from_document(doc, Path(args.input).parent)
        body = {
            "sub_coherence": sub_coherence(system),
            "gram_diagonal": [float(v) for v in np.abs(np.diag(gram(system)))],
        }
    body["manifest"] = _manifest("coherence", {"input": args.input}, {})
    _emit(body, args)
    return 0


def cmd_verify(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    if args.signal:
        x = signal_from_dict(load_json(args.signal))
        inputs["signal"] = args.signal
        sample_seed = None
    else:
        sample_seed = args.sample if args.sample is not None else _default_seed()
        space = admissible_space(bisystem, args.tol_rank)
        x = sample_admissible(space, sample_seed)
        inputs["sample_seed"] = sample_seed
    parameters = {
        "eta": args.eta, "tol_fp": args.tol_fp, "tol_cert": args.tol_cert,
        "tol_rank": args.tol_rank,
    }
    if args.set_m is not None or args.set_n is not None:
        set_m = _parse_set(args.set_m)
        set_n = _parse_set(args.set_n)
        parameters["set_m"], parameters["set_n"] = sorted(set_m), sorted(set_n)
        cert = verify_fskpb(bisystem, x, set_m, set_n, eta=args.eta,
                            tol_fp=args.tol_fp, tol_cert=args.tol_cert)
    else:
        cert = verify_fkdb(bisystem, x, eta=args.eta, tol_fp=args.tol_fp,
                           tol_cert=args.tol_cert)
    document = cert.as_dict()
    document["signal"] = signal_to_dict(x)
    document["manifest"] = _manifest("verify", inputs, parameters)
    _emit(document, args)
    return 0 if cert.hypothesis_ok and cert.satisfied else 2


def _parse_set(text):
    if text is None or text == "":
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse index set {text!r}; expected e.g. 0,2,5")


def cmd_search(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    space = admissible_space(bisystem, args.tol_rank)
    report = min_sparsity_product(bisystem, space, eta=args.eta,
                                  guard=args.guard, tol_rank=args.tol_rank)
    document = {
        "best_lhs": report.best_lhs,
        "rhs_at_witness": report.rhs_at_witness,
        "gap": report.gap,
        "patterns_searched": report.patterns_searched,
        "witness": signal_to_dict(report.witness),
        "guard": report.guard,
        "eta": report.eta,
        "manifest": _manifest("search", inputs, {
            "eta": args.eta, "guard": args.guard, "tol_rank": args.tol_rank,
        }),
    }
    _emit(document, args)
    return 0


def cmd_generate(args) -> int:
    desc = _family_descriptor(args)
    bisystem = generate(desc["family"], desc["params"], desc["seed"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("generate", {"descriptor": desc}, {})
    (out / "bisystem.json").write_text(canonical_json(bisystem_to_dict(bisystem)))
    (out / "manifest.json").write_text(canonical_json(manifest))
    sys.stdout.write(canonical_json({"written": [str(out / "bisystem.json"),
                                                 str(out / "manifest.json")],
                                     "manifest": manifest}))
    return 0


def cmd_sample(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    seed = args.sample if args.sample is not None else _default_seed()
    space = admissible_space(bisystem, args.tol_rank)
    x = sample_admissible(space, seed)
    document = signal_to_dict(x)
    document["manifest"] = _manifest("sample", inputs, {
        "sample_seed": seed, "tol_rank": args.tol_rank,
    })
    _emit(document, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsebounds",
        description="Coherence-based sparsity uncertainty bounds: validate systems, "
                    "verify certificates, and search for tight instances.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check |f_j(tau_j)| >= 1 for a system file")
    p.add_argument("system", help="system JSON file (or CSV manifest)")
    _add_tolerances(p, "--eta-hyp")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coherence", help="coherence quantities of a system or bisystem")
    p.add_argument("input", help="system or bisystem JSON file")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("verify", help="emit a bound certificate for one signal")
    _add_bisystem_source(p)
    p.add_argument("--signal", help="signal JSON file")
    p.add_argument("--sample", type=int, default=None,
                   help="sample an admissible signal with this seed")
    p.add_argument("--set-m", help="comma-separated index set for the first system")
    p.add_argument("--set-n", help="comma-separated index set for the second system")
    _add_tolerances(p, "--eta", "--tol-fp", "--tol-cert", "--tol-rank")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive minimal sparsity-product search")
    _add_bisystem_source(p)
    p.add_argument("--guard", type=int, default=GUARD)
    _add_tolerances(p, "--eta", "--tol-rank")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("generate", help="write a family bisystem and its manifest")
    _add_bisystem_source(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", help="sample an admissible signal")
    _add_bisystem_source(p)
    p.add_argument("--sample", type=int, default=None, help="sampling seed")
    _add_tolerances(p, "--tol-rank")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SparseBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
