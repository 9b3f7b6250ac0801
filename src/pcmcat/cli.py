"""Command-line front end.

Thin adapters only: parsing, dispatch, and deterministic text output.  All
algebra lives in the library modules.  Exit codes: 0 success, 1 a law
violation was found, 2 parse or validation error, 3 a summation was refused.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from .category import pcm_product, resolve_base
from .cauchy import CauchyArrow, CauchyCategory, cauchy_product, geometric_stream, series_convolve
from .errors import (
    NotSummableError,
    ParseError,
    PcmcatError,
    ScalarParseError,
    UnknownIndexArrowError,
    ValidationError,
)
from .family import EXHAUSTIVE_PARTITION_LIMIT, family_of
from .fincat import FinCategory, cyclic_category, trivial_category, validate_category
from .laws import run_category_suite, run_pcm_suite
from .pcm import Cyclotomic, Pcm, Residue, Summable
from .universal import dft_substitute, require_prime


@dataclass(frozen=True)
class RunConfig:
    """The numeric flags, checked together before any base or index is built."""

    family_size: int = 4
    trials: int = 200
    order: int = 8

    def __post_init__(self):
        if self.family_size < 1 or self.trials < 1:
            raise ValidationError("bounds must be at least 1")
        if self.order < 0:
            raise ValidationError(f"order must be at least 0, got {self.order}")
        if self.order > MAX_SERIES_ORDER:
            raise ValidationError(f"order must be at most {MAX_SERIES_ORDER}, got {self.order}")
        if self.family_size > EXHAUSTIVE_PARTITION_LIMIT:
            raise ValidationError(
                f"family size must be at most {EXHAUSTIVE_PARTITION_LIMIT}, "
                "the largest set whose partitions are enumerated exhaustively"
            )


# The parsed flags that main checks through RunConfig, for the commands that take them.
_CHECKED = {field.name for field in fields(RunConfig)}


# The largest n that load_index builds for cyclic:<n>, whose table has n*n entries,
# and the largest prime that substitute takes for --p.  Building and validating
# Z_n costs O(n*n): its rows are written by arithmetic and Light's test checks
# associativity at z1 only, so Z_256 takes about 0.01 s (Python 3.11, 2-core x86-64).
MAX_CYCLIC_ORDER = 256
# The largest --order that series takes, and the largest product degree of two finite
# streams.  series_convolve composes in rational[trunc:n], whose (n+2)**2 factorizations
# make time and memory grow with n**2: geometric streams at order 256 took 0.5 s and
# 37 MB, finite streams of degree 598 1.3 s and 103 MB (Python 3.11, 2-core x86-64).
MAX_SERIES_ORDER = 256


# --------------------------------------------------------------------------
# .fincat parsing
# --------------------------------------------------------------------------


def parse_fincat(text: str, name: str = "") -> FinCategory:
    """Line-oriented category description; identities are implicit id_<object>."""
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    compositions: dict[tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "objects":
            if len(fields) < 2:
                raise ParseError("objects line needs at least one name", lineno)
            objects.extend(fields[1:])
        elif fields[0] == "arrow":
            if len(fields) != 4:
                raise ParseError("expected: arrow <name> <src> <tgt>", lineno)
            arrows.append((fields[1], fields[2], fields[3]))
        elif fields[0] == "compose":
            if len(fields) != 5 or fields[3] != "=":
                raise ParseError("expected: compose <g> <f> = <h>", lineno)
            if (fields[1], fields[2]) in compositions:
                raise ParseError(f"compose {fields[1]} {fields[2]} given twice", lineno)
            compositions[(fields[1], fields[2])] = fields[4]
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if not objects:
        raise ParseError("no objects declared", None)
    cat = FinCategory(objects, arrows, compositions, name=name)
    report = validate_category(cat)
    if not report.passed:
        raise ValidationError(report.line())
    return cat


def load_index(descriptor: str) -> FinCategory:
    """Builtin index descriptors, else a .fincat file path."""
    if descriptor.startswith("cyclic:"):
        text = descriptor.split(":", 1)[1]
        # ASCII digits only: int() would also take signs, underscores and spaces
        n = int(text) if text.isascii() and text.isdigit() else 0
        if n < 1:
            raise ParseError(f"cyclic:<n> needs an integer n >= 1, got {descriptor!r}")
        if n > MAX_CYCLIC_ORDER:
            raise ValidationError(f"cyclic:<n> takes n <= {MAX_CYCLIC_ORDER}, got {descriptor!r}")
        return cyclic_category(n)
    if descriptor == "trivial":
        return trivial_category()
    return parse_fincat(_read_text(descriptor), name=descriptor)


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise ``ParseError`` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# --------------------------------------------------------------------------
# scalar and .arrow parsing
# --------------------------------------------------------------------------

_INT_RE = re.compile(r"^[+-]?\d+$")
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_COMPLEX_RE = re.compile(r"^([+-]?\d+(?:\.\d+)?)([+-]\d+(?:\.\d+)?)i$")
_RESIDUE_RE = re.compile(r"^(\d+)\s+mod\s+(\d+)$")


def _read_rational(text: str, error: type[ParseError], lineno=None) -> Fraction | None:
    """The integer or p/q literal ``text``, or None when it is neither; ``error`` when q is 0."""
    match = _RATIONAL_RE.match(text)
    if match is None:
        return None
    num, den = int(match.group(1)), int(match.group(2) or 1)
    if den == 0:
        raise error(f"zero denominator in {text!r}", lineno)
    return Fraction(num, den)


def parse_scalar(text: str, base_name: str, lineno=None):
    text = text.strip()
    if base_name == "int" or base_name.startswith("kbounded:"):
        if _INT_RE.match(text):
            return int(text)
        raise ScalarParseError(f"expected an integer, got {text!r}", lineno)
    if base_name == "rational":
        value = _read_rational(text, ScalarParseError, lineno)
        if value is None:
            raise ScalarParseError(f"expected p/q or an integer, got {text!r}", lineno)
        return value
    if base_name.startswith("mod:"):
        modulus = int(base_name.split(":", 1)[1])
        match = _RESIDUE_RE.match(text)
        if match:
            if int(match.group(2)) != modulus:
                raise ScalarParseError(
                    f"residue modulus {match.group(2)} does not match base {modulus}", lineno
                )
            return Residue(int(match.group(1)), modulus)
        if _INT_RE.match(text):
            return Residue(int(text), modulus)
        raise ScalarParseError(f"expected k mod {modulus}, got {text!r}", lineno)
    if base_name == "complex":
        match = _COMPLEX_RE.match(text)
        if match:  # a + b i, exactly: i is zeta_12**3
            return Cyclotomic.of(12, Fraction(match.group(1)), 0, 0, Fraction(match.group(2)))
        raise ScalarParseError(f"expected a+bi, got {text!r}", lineno)
    raise ScalarParseError(f"base {base_name!r} has no scalar literal syntax", lineno)


_ARROW_HEADER_RE = re.compile(
    r"^arrow\s+(\S+)\s+\(([^,()]+),([^,()]+)\)\s*->\s*\(([^,()]+),([^,()]+)\)$"
)


def _find_object(cc: CauchyCategory, x: str, u: str, lineno):
    for obj in cc.objects:
        if str(obj[0]) == x and str(obj[1]) == u:
            return obj
    raise ParseError(f"unknown object pair ({x},{u})", lineno)


def parse_arrow(text: str, cc: CauchyCategory) -> tuple[str, CauchyArrow]:
    """One header line, then `<index-arrow> = <scalar>` lines; gaps are zero."""
    header = None
    coeffs: dict[str, object] = {}
    src = tgt = None
    name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            match = _ARROW_HEADER_RE.match(line)
            if not match:
                raise ParseError(
                    "expected: arrow <name> (<X>,<U>) -> (<Y>,<V>)", lineno
                )
            name = match.group(1)
            src = _find_object(cc, match.group(2), match.group(3), lineno)
            tgt = _find_object(cc, match.group(4), match.group(5), lineno)
            header = line
            continue
        if "=" not in line:
            raise ParseError("expected: <index-arrow> = <scalar>", lineno)
        arrow_name, scalar_text = (part.strip() for part in line.split("=", 1))
        hom = cc.index.hom(src[1], tgt[1])
        if arrow_name not in hom:
            raise UnknownIndexArrowError(
                f"{arrow_name!r} is not an arrow {src[1]} -> {tgt[1]}", lineno
            )
        if arrow_name in coeffs:
            raise ParseError(f"coefficient {arrow_name!r} given twice", lineno)
        coeffs[arrow_name] = parse_scalar(scalar_text, cc.base.name, lineno)
    if header is None:
        raise ParseError("missing arrow header", None)
    return name, cc.make_arrow(src, tgt, coeffs)


def load_arrow(path: str, cc: CauchyCategory) -> tuple[str, CauchyArrow]:
    return parse_arrow(_read_text(path), cc)


def render_arrow(name: str, arrow: CauchyArrow) -> str:
    (x, u), (y, v) = arrow.src, arrow.tgt
    lines = [f"arrow {name} ({x},{u}) -> ({y},{v})"]
    for index_arrow, value in arrow.coeffs:
        lines.append(f"{index_arrow} = {value}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------


def _emit(out, line: str) -> None:
    out.write(line + "\n")


def cmd_validate(args, out) -> int:
    cat = load_index(args.index)
    _emit(out, validate_category(cat).line())
    return 0


def cmd_laws(args, out) -> int:
    target = resolve_base(args.base)
    suite = run_pcm_suite if isinstance(target, Pcm) else run_category_suite
    reports = suite(target, family_size=args.family_size, trials=args.trials, seed=args.seed)
    failed = False
    for report in reports:
        _emit(out, report.line())
        failed = failed or not report.passed
    return 1 if failed else 0


def _build_cauchy(args) -> CauchyCategory:
    base = resolve_base(args.base)
    if isinstance(base, Pcm):
        raise ValidationError(f"base {args.base!r} carries no composition")
    return cauchy_product(base, load_index(args.index))


def cmd_cauchy_describe(args, out) -> int:
    cc = _build_cauchy(args)
    _emit(out, f"cauchy product: {cc.name}")
    _emit(out, "objects: " + " ".join(f"({x},{u})" for x, u in cc.objects))
    for src in cc.objects:
        for tgt in cc.objects:
            hom = cc.index.hom(src[1], tgt[1])
            _emit(
                out,
                f"hom ({src[0]},{src[1]}) -> ({tgt[0]},{tgt[1]}): "
                f"{len(hom)} coefficients [{', '.join(hom)}]",
            )
    for obj in cc.objects:
        _emit(out, f"identity at ({obj[0]},{obj[1]}): {cc.identity(obj)}")
    return 0


def cmd_convolve(args, out) -> int:
    cc = _build_cauchy(args)
    gname, g = load_arrow(args.arrows[0], cc)
    fname, f = load_arrow(args.arrows[1], cc)
    _emit(out, render_arrow(f"{gname}.{fname}", cc.compose(g, f)))
    return 0


def cmd_sum(args, out) -> int:
    cc = _build_cauchy(args)
    named = [load_arrow(path, cc) for path in args.arrows]
    fam = family_of([arrow for _, arrow in named])
    result = cc.sum_arrows(fam)
    if not isinstance(result, Summable):
        _emit(out, "NOT SUMMABLE")
        return 3
    _emit(out, render_arrow("+".join(name for name, _ in named), result.value))
    return 0


def cmd_substitute(args, out) -> int:
    if args.p > MAX_CYCLIC_ORDER:
        raise ValidationError(f"--p takes a prime p <= {MAX_CYCLIC_ORDER}, got {args.p}")
    require_prime(args.p)
    base = resolve_base("int")
    cc = cauchy_product(base, cyclic_category(args.p))
    _, arrow = load_arrow(args.arrow, cc)
    alpha = [value for _, value in arrow.coeffs]
    _emit(out, str(dft_substitute(args.p, args.s, alpha)))
    return 0


def cmd_embed(args, out) -> int:
    from .cauchy import eta_functor, gamma_functor, sigma_functor, star_embed

    cc = _build_cauchy(args)
    if args.which == "sigma":
        if not args.arrows:
            raise ValidationError("embed --which sigma needs an arrow file")
        _, arrow = load_arrow(args.arrows[0], cc)
        _emit(out, str(sigma_functor(cc).on_arr(arrow)))
        return 0
    if args.which in ("eta", "star") and args.scalar is None:
        raise ValidationError(f"embed --which {args.which} needs --scalar")
    if args.which in ("gamma", "star"):
        if args.index_arrow is None:
            raise ValidationError(f"embed --which {args.which} needs --index-arrow")
        if args.index_arrow not in cc.index.arrows:
            raise ValidationError(f"unknown index arrow {args.index_arrow!r}")
    if args.which == "eta":
        value = parse_scalar(args.scalar, cc.base.name)
        arrow = eta_functor(cc, args.at).on_arr(value)
        _emit(out, render_arrow("eta", arrow))
        return 0
    if args.which == "gamma":
        arrow = gamma_functor(cc, _parse_base_object(cc, args.at)).on_arr(args.index_arrow)
        _emit(out, render_arrow("gamma", arrow))
        return 0
    value = parse_scalar(args.scalar, cc.base.name)
    arrow = star_embed(cc, value, args.index_arrow)
    _emit(out, render_arrow("star", arrow))
    return 0


def _parse_base_object(cc: CauchyCategory, text: str):
    for obj in cc.base.objects:
        if str(obj) == text:
            return obj
    raise ValidationError(f"unknown base object {text!r}")


def cmd_product(args, out) -> int:
    from .category import check_strong_distributivity

    first = resolve_base(args.base)
    second = resolve_base(args.base2)
    if isinstance(first, Pcm) or isinstance(second, Pcm):
        raise ValidationError("product needs two composition-carrying bases")
    product = pcm_product(first, second)
    _emit(out, f"product: {product.name}")
    _emit(out, "objects: " + " ".join(f"({a},{b})" for a, b in product.objects))
    report = check_strong_distributivity(product, trials=args.trials, seed=args.seed)
    _emit(out, report.line())
    return 0 if report.passed else 1


def _parse_stream(text: str):
    if text.startswith("geom:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"expected geom:<scale>:<ratio>, got {text!r}", None)
        try:
            scale, ratio = [_read_rational(part.strip(), ParseError) for part in parts[1:]]
        except ParseError:  # a zero denominator, named with the whole stream
            raise ParseError(f"zero denominator in {text!r}", None) from None
        if scale is None or ratio is None:
            raise ParseError(f"bad stream {text!r}: expected p/q or an integer", None)
        try:
            return geometric_stream(scale, ratio)
        except ValueError as exc:  # a scale or ratio BoundedStream rejects
            raise ParseError(f"bad stream {text!r}: {exc}", None) from None
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        value = _read_rational(piece, ParseError)
        if value is None:
            raise ParseError(f"bad coefficient {piece!r}", None)
        values.append(value)
    return values


def cmd_series(args, out) -> int:
    p, q = _parse_stream(args.p), _parse_stream(args.q)
    if isinstance(p, list) and isinstance(q, list) and len(p) + len(q) - 2 > MAX_SERIES_ORDER:
        raise ValidationError(f"finite streams must have product degree at most "
                              f"{MAX_SERIES_ORDER}, got {len(p) + len(q) - 2}")
    product = series_convolve(p, q, args.order)
    _emit(out, "coeffs: " + ", ".join(str(c) for c in product.coeffs))
    _emit(out, f"tail <= {product.tail_bound}")
    return 0


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


# The flags that several commands share; each command names the ones it reads.
_FLAGS = {
    "--base": {"default": "int"},
    "--index": {"default": "cyclic:2"},
    "--seed": {"type": int, "default": 0},
    "--family-size": {"type": int, "default": 4},
    "--trials": {"type": int, "default": 200},
}


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmcat",
        description="Summation categories, convolution products, and their law suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    convolution = ("--base", "--index")

    p = sub.add_parser("validate", help="validate an index category file")
    p.add_argument("--index", required=True)

    p = sub.add_parser("laws", help="run the law suite on a base instance")
    shared(p, "--base", "--seed", "--family-size", "--trials")

    p = sub.add_parser("cauchy", help="convolution-category operations")
    cauchy_sub = p.add_subparsers(dest="cauchy_command", required=True)
    shared(cauchy_sub.add_parser("describe"), *convolution)

    p = sub.add_parser("convolve", help="compose two coefficient arrows (first after second)")
    shared(p, *convolution)
    p.add_argument("arrows", nargs=2)

    p = sub.add_parser("sum", help="sum coefficient arrows")
    shared(p, *convolution)
    p.add_argument("arrows", nargs="+")

    p = sub.add_parser("substitute", help="evaluate integer coefficients at roots of unity")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("arrow")

    p = sub.add_parser("embed", help="apply one of the structural embeddings")
    p.add_argument("--which", choices=("sigma", "eta", "gamma", "star"), required=True)
    shared(p, *convolution)
    p.add_argument("--at", default="*", help="index object (eta) or base object (gamma)")
    p.add_argument("--scalar", help="base scalar literal (eta, star)")
    p.add_argument("--index-arrow", help="index arrow name (gamma, star)")
    p.add_argument("arrows", nargs="*", help="arrow file (sigma)")

    p = sub.add_parser("product", help="product of two bases, with a law check")
    shared(p, "--base", "--seed", "--trials")
    p.add_argument("--base2", required=True)

    p = sub.add_parser("series", help="truncated convolution of coefficient streams")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "laws": cmd_laws,
    "cauchy": cmd_cauchy_describe,  # `cauchy describe`, its one subcommand
    "convolve": cmd_convolve,
    "sum": cmd_sum,
    "substitute": cmd_substitute,
    "embed": cmd_embed,
    "product": cmd_product,
    "series": cmd_series,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        RunConfig(**{name: value for name, value in vars(args).items() if name in _CHECKED})
        return handler(args, out)
    except NotSummableError as exc:
        err.write(f"not summable: {exc}\n")
        return 3
    except (PcmcatError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
