"""Command-line surface: validate, coherence, verify, search, generate, sample.

Exit codes are a stable contract: 0 success, 1 structural/parameter error,
2 hypothesis failure, 3 no admissible signal, 4 search guard exceeded.
Every emitted report embeds its full run manifest so reruns are
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

from . import __version__
from .admissible import (_MAGNITUDE, FAMILIES, _descriptor, admissible_space, generate,
                         sample_admissible)
from .bounds import verify_fkdb, verify_fskpb
from .coherence import coherence_profile, sub_coherence
from .config import (
    ETA,
    ETA_HYP,
    GUARD,
    TOL_CERT,
    TOL_FP,
    TOL_RANK,
    _number,
    _valid_integer,
    _valid_real,
)
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


def _flag(rule, *domain):
    """argparse type of a numeric flag: its text decided by _number."""
    def parse(text):
        try:
            return _number("value", text, rule, *domain)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _seed(text) -> int:
    """A seed flag's text, or for a flag not given $SPARSEBOUNDS_SEED's ("0"
    when unset), decided by _number."""
    name = "seed"
    if text is None:
        name, text = f"${SEED_ENV}", os.environ.get(SEED_ENV, "0")
    return _number(name, text, _valid_integer, 0)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input error; argparse's own 2 is
    the hypothesis-failure code here."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


_TOLERANCES = {
    "--eta": (ETA, "zero threshold for l0"),
    "--eta-hyp": (ETA_HYP, "slack of the |f_j(tau_j)| >= 1 check"),
    "--tol-fp": (TOL_FP, "fixed-point residual tolerance"),
    "--tol-cert": (TOL_CERT, "certificate comparison slack"),
    "--tol-rank": (TOL_RANK, "null-space rank cutoff"),
}


def _add_tolerances(parser, *flags):
    """Adds the tolerance flags and records their names for the manifest."""
    for flag in flags:
        default, help_text = _TOLERANCES[flag]
        parser.add_argument(flag, type=_flag(_valid_real, 0.0), default=default, help=help_text)
    parser.set_defaults(tolerances=[flag[2:].replace("-", "_") for flag in flags])


def _add_bisystem_source(parser):
    parser.add_argument("--bisystem", help="bisystem JSON file")
    _add_family_source(parser)


def _add_family_source(parser):
    parser.add_argument("--descriptor", help="family descriptor JSON file")
    parser.add_argument("--family", choices=FAMILIES, help="generated family name")
    parser.add_argument("--d", type=_flag(_valid_integer, 1), help="ambient dimension")
    parser.add_argument("--angle", help="rotation angle in degrees")
    parser.add_argument("--split", type=_flag(_valid_integer, 1),
                        help="subspace dimension for subspace_union")
    parser.add_argument("--magnitude", help="perturbation magnitude")
    parser.add_argument("--base", choices=FAMILIES, help="base family for perturbed")
    parser.add_argument("--seed", help=f"generation seed (default: ${SEED_ENV} or 0)")


# The flags of the --family source; no other source reads them.
_FAMILY_FLAGS = ("family", "d", "angle", "split", "magnitude", "base", "seed")


def _only_source(args, source: str, flags=_FAMILY_FLAGS) -> None:
    """Refuses a flag of flags given with a source that does not read it."""
    for flag in flags:
        if getattr(args, flag, None) is not None:
            raise ParameterError(f"--{flag.replace('_', '-')} does not apply to --{source}")


def _family_descriptor(args) -> dict:
    if args.descriptor:
        _only_source(args, "descriptor")
        family, params, seed = _descriptor(load_json(args.descriptor), 0, "descriptor file")
        return {"family": family, "params": params, "seed": seed}
    if not args.family:
        sources = "--bisystem, --descriptor, or" if "bisystem" in args else "--descriptor or"
        raise ParameterError(f"provide {sources} --family")
    seed = _seed(args.seed)
    # Every flag given goes to the family, which refuses one it does not take.
    params = {key: getattr(args, key) for key in ("d", "split") if getattr(args, key) is not None}
    params.update({key: _number(f"--{key}", getattr(args, key), _valid_real, -math.inf)
                   for key in ("angle", "magnitude") if getattr(args, key) is not None})
    if args.family == "perturbed":
        if not args.base:
            raise ParameterError("perturbed needs --base naming the base family")
        magnitude = params.pop("magnitude", _MAGNITUDE)
        params = {"base": {"family": args.base, "params": params, "seed": seed},
                  "magnitude": magnitude}
    elif args.base:
        raise ParameterError(f"--base applies to perturbed only, not {args.family}")
    return {"family": args.family, "params": params, "seed": seed}


def _resolve_bisystem(args) -> tuple:
    """Returns (BiSystem, manifest inputs entry)."""
    if args.bisystem:
        _only_source(args, "bisystem", ("descriptor", *_FAMILY_FLAGS))
        return bisystem_from_dict(load_json(args.bisystem)), {"bisystem": args.bisystem}
    desc = _family_descriptor(args)
    return generate(desc["family"], desc["params"], desc["seed"]), {"descriptor": desc}


def _manifest(args, inputs: dict, **extra) -> dict:
    """Run manifest; its parameters are the command's tolerance flags plus extra."""
    parameters = {name: getattr(args, name) for name in args.tolerances}
    return {
        "command": args.command,
        "inputs": inputs,
        "parameters": {**parameters, **extra},
        "version": __version__,
    }


@contextlib.contextmanager
def _writing(path):
    """Scope of the writes under an --out path: one that fails exits 1."""
    try:
        yield
    except OSError as exc:
        raise StructuralError(f"cannot write {path}: {exc}")


def _emit(document: dict, args) -> None:
    text = canonical_json(document)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
    if args.format == "table":
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
    document = {**vars(report), "diagonals": report.diagonals.tolist(),
                "per_index_ok": report.per_index_ok.tolist(),
                "manifest": _manifest(args, {"system": args.system})}
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
            "gram_diagonal": validate_pairing(system).diagonals.tolist(),
        }
    body["manifest"] = _manifest(args, {"input": args.input})
    _emit(body, args)
    return 0


def cmd_verify(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    if args.signal:
        _only_source(args, "signal", ("sample", "tol_rank"))
    # Only sampling reads --tol-rank; the manifest records its value either way.
    args.tol_rank = TOL_RANK if args.tol_rank is None else args.tol_rank
    if args.signal:
        x = signal_from_dict(load_json(args.signal))
        inputs["signal"] = args.signal
    else:
        inputs["sample_seed"] = sample_seed = _seed(args.sample)
        x = sample_admissible(admissible_space(bisystem, args.tol_rank), sample_seed)
    sets = {}
    if args.set_m is not None or args.set_n is not None:
        sets = {"set_m": _index_set(args.set_m), "set_n": _index_set(args.set_n)}
        cert = verify_fskpb(bisystem, x, sets["set_m"], sets["set_n"], eta=args.eta,
                            tol_fp=args.tol_fp, tol_cert=args.tol_cert)
    else:
        cert = verify_fkdb(bisystem, x, eta=args.eta, tol_fp=args.tol_fp,
                           tol_cert=args.tol_cert)
    document = cert.as_dict()
    document["signal"] = signal_to_dict(x)
    document["manifest"] = _manifest(args, inputs, **sets)
    _emit(document, args)
    return 0 if cert.hypothesis_ok and cert.satisfied else 2


def _index_set(text) -> list:
    """The sorted distinct indices of comma-separated text, each decided by _number."""
    return sorted({_number("index", v, _valid_integer, 0) for v in text.split(",")} if text else ())


def cmd_search(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    space = admissible_space(bisystem, args.tol_rank)
    report = min_sparsity_product(bisystem, space, eta=args.eta,
                                  guard=args.guard, tol_rank=args.tol_rank)
    document = {**vars(report), "witness": signal_to_dict(report.witness),
                "manifest": _manifest(args, inputs, guard=args.guard)}
    _emit(document, args)
    return 0


def cmd_generate(args) -> int:
    desc = _family_descriptor(args)
    bisystem = generate(desc["family"], desc["params"], desc["seed"])
    out = Path(args.out)
    manifest = _manifest(args, {"descriptor": desc})
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "bisystem.json").write_text(canonical_json(bisystem_to_dict(bisystem)))
        (out / "manifest.json").write_text(canonical_json(manifest))
    sys.stdout.write(canonical_json({"written": [str(out / "bisystem.json"),
                                                 str(out / "manifest.json")],
                                     "manifest": manifest}))
    return 0


def cmd_sample(args) -> int:
    bisystem, inputs = _resolve_bisystem(args)
    seed = _seed(args.sample)
    x = sample_admissible(admissible_space(bisystem, args.tol_rank), seed)
    document = {**signal_to_dict(x), "manifest": _manifest(args, inputs, sample_seed=seed)}
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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "table"), default="json")
    output.add_argument("--out")

    p = sub.add_parser("validate", parents=[output],
                       help="check |f_j(tau_j)| >= 1 for a system file")
    p.add_argument("system", help="system JSON file (or CSV manifest)")
    _add_tolerances(p, "--eta-hyp")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coherence", parents=[output],
                       help="coherence quantities of a system or bisystem")
    p.add_argument("input", help="system or bisystem JSON file")
    _add_tolerances(p)
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("verify", parents=[output], help="emit a bound certificate for one signal")
    _add_bisystem_source(p)
    p.add_argument("--signal", help="signal JSON file")
    p.add_argument("--sample", help="sample an admissible signal with this seed")
    p.add_argument("--set-m", help="comma-separated index set for the first system")
    p.add_argument("--set-n", help="comma-separated index set for the second system")
    _add_tolerances(p, "--eta", "--tol-fp", "--tol-cert", "--tol-rank")
    # Unset unless given, so that a --signal run can refuse it (cmd_verify).
    p.set_defaults(func=cmd_verify, tol_rank=None)

    p = sub.add_parser("search", parents=[output],
                       help="exhaustive minimal sparsity-product search")
    _add_bisystem_source(p)
    p.add_argument("--guard", type=_flag(_valid_integer, 2), default=GUARD,
                   help="largest n + m searched")
    _add_tolerances(p, "--eta", "--tol-rank")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("generate", help="write a family bisystem and its manifest")
    _add_family_source(p)
    p.add_argument("--out", required=True, help="output directory")
    _add_tolerances(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", parents=[output], help="sample an admissible signal")
    _add_bisystem_source(p)
    p.add_argument("--sample", help="sampling seed")
    _add_tolerances(p, "--tol-rank")
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
