import argparse
import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from pcmcat import category, cauchy, pcm
from pcmcat.category import (
    MAX_MATRIX_DIM,
    MAX_MATRIX_OBJECTS,
    MAX_MODULUS,
    MAX_PARTIAL_FN_POINTS,
    MAX_RELATION_POINTS,
    MAX_UNIT_BALL_DIM,
    from_semiring,
)
from pcmcat.cauchy import cauchy_product
from pcmcat import cli
from pcmcat.cli import (
    MAX_CYCLIC_ORDER,
    MAX_SERIES_ORDER,
    main,
    parse_arrow,
    parse_fincat,
    parse_scalar,
)
from pcmcat.errors import (
    ParseError,
    ScalarParseError,
    UnknownIndexArrowError,
    ValidationError,
)
from pcmcat.family import family_of
from pcmcat.fincat import cyclic_category
from pcmcat.pcm import UNIT_BALL_NORMS, Cyclotomic, Residue, Summable, make_unit_ball_pcm

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_fincat_z2():
    cat = parse_fincat((DATA / "z2.fincat").read_text())
    assert len(cat.objects) == 1
    assert len(cat.arrows) == 2
    assert cat.compose("z1", "z1") == "id_e"


def test_parse_fincat_two_object_file():
    cat = parse_fincat((DATA / "two_object.fincat").read_text())
    assert len(cat.objects) == 2
    assert len(cat.arrows) == 5


def test_parse_fincat_missing_composite_is_validation_error():
    with pytest.raises(ValidationError):
        parse_fincat((DATA / "missing_composite.fincat").read_text())


def test_parse_fincat_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_fincat((DATA / "malformed.fincat").read_text())
    assert excinfo.value.line == 2


def test_parse_scalar_variants():
    assert parse_scalar("-3", "int") == -3
    assert parse_scalar("2/3", "rational").numerator == 2
    assert parse_scalar("3 mod 5", "mod:5") == Residue(3, 5)
    assert parse_scalar("1.5+0.5i", "complex") == Cyclotomic.of(12, Fraction(3, 2), 0, 0,
                                                                Fraction(1, 2))
    assert parse_scalar("0.1-2i", "complex") == Cyclotomic.of(12, Fraction(1, 10), 0, 0, -2)


def test_parse_scalar_rejects_fraction_over_int():
    with pytest.raises(ScalarParseError):
        parse_scalar("1/3", "int")


def test_parse_arrow_defaults_unlisted_to_zero():
    cc = cauchy_product(from_semiring("int"), cyclic_category(2))
    name, arrow = parse_arrow("arrow a (*,*) -> (*,*)\nz0 = 2\n", cc)
    assert name == "a"
    assert arrow.coeff("z0") == 2
    assert arrow.coeff("z1") == 0


def test_parse_arrow_unknown_index_arrow():
    cc = cauchy_product(from_semiring("int"), cyclic_category(2))
    with pytest.raises(UnknownIndexArrowError):
        parse_arrow("arrow a (*,*) -> (*,*)\nz9 = 2\n", cc)


def test_validate_command_accepts_good_file():
    code, out, _ = run_cli("validate", "--index", str(DATA / "z2.fincat"))
    assert code == 0
    assert "PASS" in out


def test_validate_command_rejects_incomplete_table():
    code, out, err = run_cli("validate", "--index", str(DATA / "missing_composite.fincat"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text,message", [
    ("objects U U\narrow a U U\ncompose a a = a\n", "duplicate object name 'U'"),
    ("objects U\narrow a U U\narrow b U U\ncompose a a = a\ncompose a b = a\n"
     "compose b a = b\ncompose b b = b\ncompose a a = b\n", "line 8: compose a a given twice"),
], ids=["object", "compose"])
def test_validate_refuses_a_repeated_declaration(text, message, tmp_path):
    path = tmp_path / "repeat.fincat"
    path.write_text(text)
    code, out, err = run_cli("validate", "--index", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_arrow_file_that_gives_a_coefficient_twice_exits_two(tmp_path):
    path = tmp_path / "twice.arrow"
    path.write_text("arrow f (*,*) -> (*,*)\nz0 = 1\nz0 = 5\n")
    code, out, err = run_cli("convolve", "--base", "int", str(path), str(path))
    assert (code, out, err) == (2, "", "error: line 3: coefficient 'z0' given twice\n")


@pytest.mark.parametrize("descriptor", ["cyclic:x", "cyclic:", "cyclic:0", "cyclic:-2",
                                        "cyclic:1_6", "cyclic:+3", "cyclic: 3"])
def test_validate_malformed_cyclic_descriptor_exits_two(descriptor):
    code, out, err = run_cli("validate", "--index", descriptor)
    assert (code, out) == (2, "")
    assert "cyclic:<n> needs an integer n >= 1" in err


@pytest.mark.parametrize("descriptor", ["cyclic:257", "cyclic:100000"])
def test_validate_oversized_cyclic_descriptor_is_refused_before_building(descriptor, monkeypatch):
    def no_build(n):
        raise AssertionError(f"cyclic_category({n}) was built")

    monkeypatch.setattr(cli, "cyclic_category", no_build)
    code, out, err = run_cli("validate", "--index", descriptor)
    assert (code, out) == (2, "")
    assert f"n <= {MAX_CYCLIC_ORDER}" in err


@pytest.mark.parametrize("descriptor, most", [
    ("rel:5", MAX_RELATION_POINTS),
    ("rel:100000", MAX_RELATION_POINTS),
    ("pfn:7", MAX_PARTIAL_FN_POINTS),
    ("pinj-overlap:7", MAX_PARTIAL_FN_POINTS),
    ("pinj-disjoint:7", MAX_PARTIAL_FN_POINTS),
    ("matrix:17", MAX_MATRIX_DIM),
    ("matrix:2,100000", MAX_MATRIX_DIM),
    ("mod:33", MAX_MODULUS),
    ("mod:100000", MAX_MODULUS),
    ("unitball:257:l1", MAX_UNIT_BALL_DIM),
])
def test_laws_oversized_base_descriptor_is_refused_before_building(descriptor, most, monkeypatch):
    def no_build(*args):
        raise AssertionError(f"{descriptor} built its elements")

    monkeypatch.setattr(pcm, "all_relations", no_build)
    monkeypatch.setattr(pcm, "all_partial_fns", no_build)
    monkeypatch.setattr(category, "matrix_category", no_build)
    monkeypatch.setattr(category, "mod_add", no_build)
    monkeypatch.setattr(category, "make_unit_ball_pcm", no_build)
    code, out, err = run_cli("laws", "--base", descriptor, "--family-size", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: descriptor {descriptor!r} takes an integer <= {most} ")


def test_laws_too_many_matrix_objects_are_refused_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("matrix:1,1,1,1,1 built its category")

    monkeypatch.setattr(category, "matrix_category", no_build)
    code, out, err = run_cli("laws", "--base", "matrix:1,1,1,1,1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: descriptor 'matrix:1,1,1,1,1' takes at most "
                          f"{MAX_MATRIX_OBJECTS} dimensions where it has 5; ")


def test_the_largest_matrix_descriptor_resolves():
    cat = category.resolve_base("matrix:16,16,16,16")
    assert cat.objects == (16, 16, 16, 16)


def test_the_largest_modulus_and_unit_ball_dimension_resolve():
    assert category.resolve_base(f"mod:{MAX_MODULUS}").hom_pcm("*", "*").grid == tuple(
        Residue(k, 32) for k in range(32))
    ball = category.resolve_base(f"unitball:{MAX_UNIT_BALL_DIM}:l2")
    assert {len(v.coords) for v in ball.grid} == {256}


def test_validate_largest_cyclic_descriptor_passes():
    code, out, _ = run_cli("validate", "--index", f"cyclic:{MAX_CYCLIC_ORDER}")
    assert (code, out) == (0, f"CHECK category[Z{MAX_CYCLIC_ORDER}] PASS\n")


def test_laws_int_exits_zero():
    code, out, _ = run_cli("laws", "--base", "int", "--family-size", "3", "--trials", "40")
    assert code == 0
    assert "CHECK" in out
    assert "FAIL" not in out


def test_laws_kbounded2_exits_one_with_witness():
    code, out, _ = run_cli("laws", "--base", "kbounded:2", "--family-size", "3",
                           "--trials", "40")
    assert code == 1
    assert "strong-distributivity[kbounded:2] FAIL" in out
    assert "witness=[{i0=1,i1=1};{i0=1,i1=1}]" in out


def test_laws_unitball_runs_pcm_suite_only():
    code, out, _ = run_cli("laws", "--base", "unitball:1:l1", "--family-size", "3",
                           "--trials", "30")
    assert code == 0
    assert "strong-distributivity" not in out


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("norm", UNIT_BALL_NORMS)
def test_every_unit_ball_sample_lies_in_its_ball(norm, dim):
    """Each sample is a summable singleton, so the ball passes its own laws."""
    ball = make_unit_ball_pcm(dim, norm)
    for x in ball.sample_elements:
        assert ball.sum(family_of([x])) == Summable(x), x
    code, out, _ = run_cli("laws", "--base", f"unitball:{dim}:{norm}", "--family-size", "3",
                           "--trials", "30")
    assert code == 0, out


def test_cauchy_describe():
    code, out, _ = run_cli("cauchy", "describe", "--base", "int", "--index", "cyclic:2")
    assert code == 0
    assert "identity at (*,*): {z0=1,z1=0}" in out


def test_convolve_command():
    code, out, _ = run_cli(
        "convolve", "--base", "int", "--index", "cyclic:2",
        str(DATA / "f_z2.arrow"), str(DATA / "f_z2.arrow"),
    )
    assert code == 0
    assert "z0 = 2" in out and "z1 = 2" in out


def test_convolve_rejects_rational_scalar_over_int_base():
    code, _, err = run_cli(
        "convolve", "--base", "int", "--index", "cyclic:2",
        str(DATA / "third.arrow"), str(DATA / "f_z2.arrow"),
    )
    assert code == 2
    assert "error" in err


def test_sum_command():
    code, out, _ = run_cli(
        "sum", "--base", "int", "--index", "cyclic:2",
        str(DATA / "f_z2.arrow"), str(DATA / "g_z2.arrow"),
    )
    assert code == 0
    assert "z0 = 3" in out and "z1 = 1" in out


def test_sum_not_summable_exit_code():
    code, out, _ = run_cli(
        "sum", "--base", "kbounded:1", "--index", "cyclic:2",
        str(DATA / "g_z2.arrow"), str(DATA / "g_z2.arrow"),
    )
    assert code == 3
    assert "NOT SUMMABLE" in out


def test_arrow_file_over_bounded_base_can_be_refused():
    code, _, err = run_cli(
        "sum", "--base", "kbounded:1", "--index", "cyclic:2",
        str(DATA / "f_z2.arrow"),
    )
    assert code == 3
    assert "not summable" in err


def test_substitute_all_ones_prints_zero():
    code, out, _ = run_cli("substitute", "--p", "5", "--s", "1", str(DATA / "ones5.arrow"))
    assert code == 0
    assert out.strip() == "0.000000000000+0.000000000000i"


def test_embed_sigma():
    code, out, _ = run_cli(
        "embed", "--which", "sigma", "--base", "int", "--index", "cyclic:2",
        str(DATA / "f_z2.arrow"),
    )
    assert code == 0
    assert out.strip() == "2"


def test_embed_eta():
    code, out, _ = run_cli(
        "embed", "--which", "eta", "--base", "int", "--index", "cyclic:2",
        "--at", "*", "--scalar", "5",
    )
    assert code == 0
    assert "z0 = 5" in out and "z1 = 0" in out


def test_embed_gamma():
    code, out, _ = run_cli(
        "embed", "--which", "gamma", "--base", "int", "--index", "cyclic:2",
        "--at", "*", "--index-arrow", "z1",
    )
    assert code == 0
    assert "z0 = 0" in out and "z1 = 1" in out


def test_embed_star():
    code, out, _ = run_cli(
        "embed", "--which", "star", "--base", "int", "--index", "cyclic:2",
        "--scalar", "3", "--index-arrow", "z1",
    )
    assert code == 0
    assert "z0 = 0" in out and "z1 = 3" in out


def test_product_command():
    code, out, _ = run_cli("product", "--base", "int", "--base2", "mod:5",
                           "--trials", "40")
    assert code == 0
    assert "product:" in out


def test_series_binomial():
    code, out, _ = run_cli("series", "--order", "2", "--p", "1,1", "--q", "1,1")
    assert code == 0
    assert "coeffs: 1, 2, 1" in out
    assert "tail <= 0" in out


def test_series_geometric():
    code, out, _ = run_cli("series", "--order", "3", "--p", "geom:1:1/2",
                           "--q", "geom:1:1/2")
    assert code == 0
    assert "coeffs: 1, 1, 3/4, 1/2" in out


def test_identical_seeds_give_identical_bytes():
    battery = [
        ("laws", "--base", "int", "--seed", "7", "--family-size", "3", "--trials", "40"),
        ("laws", "--base", "kbounded:2", "--seed", "7", "--family-size", "3",
         "--trials", "40"),
        ("substitute", "--p", "5", "--s", "2", str(DATA / "ones5.arrow")),
        ("series", "--order", "4", "--p", "geom:1:1/2", "--q", "1,1"),
    ]

    def run_battery():
        chunks = []
        for argv in battery:
            code, out, _ = run_cli(*argv)
            chunks.append(f"exit={code}\n{out}")
        return "".join(chunks)

    assert run_battery() == run_battery()


def _refuse_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the base was built before the flags were checked")

    monkeypatch.setattr(cli, "resolve_base", fail)


@pytest.mark.parametrize("argv", [
    ("laws", "--base", "complex", "--family-size", "4"),
    ("product", "--base", "complex", "--base2", "complex", "--trials", "20"),
    ("cauchy", "describe", "--base", "complex"),
    ("convolve", "--base", "complex", str(DATA / "f_z2.arrow"), str(DATA / "g_z2.arrow")),
    ("sum", "--base", "complex", str(DATA / "f_z2.arrow")),
    ("embed", "--which", "eta", "--base", "complex", "--scalar", "1+0i"),
])
def test_no_command_takes_a_tolerance(argv, monkeypatch):
    """The complex carrier is exact, so no flag sets a tolerance."""
    _refuse_any_work(monkeypatch)
    code, out, err = _run_catching_usage_errors((*argv, "--tolerance=1e-17"))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tolerance=1e-17" in err


@pytest.mark.parametrize("size", ["9", "20", "100000"])
def test_laws_family_size_above_the_partition_limit_exits_two(size, monkeypatch):
    _refuse_any_work(monkeypatch)
    code, out, err = run_cli("laws", "--base", "int", "--family-size", size)
    assert code == 2
    assert out == ""
    assert "family size must be at most 8" in err


def test_run_config_accepts_the_partition_limit():
    assert cli.RunConfig(family_size=8).family_size == 8


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_product_refuses_too_few_trials_before_building_a_base(trials, monkeypatch):
    _refuse_any_work(monkeypatch)
    code, out, err = run_cli("product", "--base", "int", "--base2", "int", "--trials", trials)
    assert (code, out, err) == (2, "", "error: bounds must be at least 1\n")


@pytest.mark.parametrize("argv, prefix", [
    (("laws", "--base", "nope"), "error: unknown base descriptor 'nope'"),
    (("validate", "--index", str(DATA / "no_such.fincat")), "error: [Errno 2]"),
    (("validate", "--index", str(DATA / "malformed.fincat")), "error: line 2: "),
    (("validate", "--index", str(DATA / "missing_composite.fincat")), "error: CHECK category"),
])
def test_library_parse_validation_and_file_errors_exit_two(argv, prefix):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ("laws", "--base", "mod:x"),
    ("laws", "--base", "mod:0"),
    ("laws", "--base", "matrix:0"),
    ("laws", "--base", "matrix:2,x"),
    ("laws", "--base", "kbounded:0"),
    ("laws", "--base", "unitball:2:l3"),
    ("laws", "--base", "unitball:x:l1"),
    ("laws", "--base", "pfn:-1"),
    ("laws", "--base", "pfn:+2"),
    ("laws", "--base", "mod:0_5"),
    ("laws", "--base", "mod: 5"),
    ("laws", "--base", "matrix:+2"),
    ("laws", "--base", "unitball:1_0:l1"),
    ("cauchy", "describe", "--base", "mod:0"),
    ("product", "--base", "int", "--base2", "kbounded:0"),
])
def test_malformed_descriptor_parameter_exits_two(argv):
    descriptor = argv[-1]
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: descriptor {descriptor!r} needs ") and err.endswith("\n")


@pytest.mark.parametrize("descriptor", ["mod:0", "mod:x"])
def test_from_semiring_names_a_malformed_modulus(descriptor):
    with pytest.raises(ParseError, match=f"descriptor {descriptor!r}"):
        from_semiring(descriptor)


def test_series_negative_order_exits_two_before_any_stream_is_parsed(monkeypatch):
    def fail(text):
        raise AssertionError("a stream was parsed before the order was checked")

    monkeypatch.setattr(cli, "_parse_stream", fail)
    code, out, err = run_cli("series", "--order", "-1", "--p", "1,1", "--q", "1")
    assert (code, out) == (2, "")
    assert err == "error: order must be at least 0, got -1\n"


def test_series_oversized_order_exits_two_before_any_stream_is_parsed(monkeypatch):
    def fail(text):
        raise AssertionError("a stream was parsed before the order was checked")

    monkeypatch.setattr(cli, "_parse_stream", fail)
    order = MAX_SERIES_ORDER + 1
    code, out, err = run_cli("series", "--order", str(order), "--p", "1,1", "--q", "1")
    assert (code, out) == (2, "")
    assert err == f"error: order must be at most {MAX_SERIES_ORDER}, got {order}\n"


def test_series_accepts_the_largest_order():
    code, out, err = run_cli("series", "--order", str(MAX_SERIES_ORDER), "--p", "1,1",
                             "--q", "1")
    assert (code, err) == (0, "")


def test_series_refuses_finite_streams_above_the_largest_degree(monkeypatch):
    def fail(n):
        raise AssertionError("the index was built before the degree was checked")

    monkeypatch.setattr(cauchy, "truncated_category", fail)
    p, q = ",".join(["1"] * 129), ",".join(["1"] * 130)
    code, out, err = run_cli("series", "--p", p, "--q", q)
    assert (code, out) == (2, "")
    assert err == (f"error: finite streams must have product degree at most "
                   f"{MAX_SERIES_ORDER}, got {MAX_SERIES_ORDER + 1}\n")


@pytest.mark.parametrize("argv, message", [
    (("series", "--p", "1/0", "--q", "1"), "zero denominator in '1/0'"),
    (("series", "--p", "1", "--q", "2,3/0"), "zero denominator in '3/0'"),
    (("series", "--p", "geom:1:2", "--q", "1"), "bad stream 'geom:1:2': ratio must satisfy"),
    (("series", "--p", "geom:-1:1/2", "--q", "1"), "bad stream 'geom:-1:1/2': scale must be"),
    (("series", "--p", "geom:1:x", "--q", "1"), "bad stream 'geom:1:x': "),
    (("series", "--p", "geom:1:1/0", "--q", "1"), "zero denominator in 'geom:1:1/0'"),
    (("series", "--p", "geom:0.5:1e-1", "--q", "1"), "bad stream 'geom:0.5:1e-1': "),
    (("series", "--p", "geom:1:0.5", "--q", "1"), "bad stream 'geom:1:0.5': "),
    (("embed", "--which", "eta", "--base", "rational", "--scalar", "1/0"),
     "zero denominator in '1/0'"),
    (("embed", "--which", "star", "--base", "rational", "--scalar=-2/0",
      "--index-arrow", "z1"), "zero denominator in '-2/0'"),
])
def test_a_malformed_rational_literal_exits_two(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.endswith("\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["convolve", "sum"])
def test_an_arrow_file_with_a_zero_denominator_exits_two(command, tmp_path):
    good, bad = tmp_path / "good.arrow", tmp_path / "bad.arrow"
    good.write_text("arrow f (*,*) -> (*,*)\nz0 = 1/2\n")
    bad.write_text("arrow g (*,*) -> (*,*)\nz0 = 1/0\n")
    code, out, err = run_cli(command, "--base", "rational", str(bad), str(good))
    assert (code, out, err) == (2, "", "error: line 2: zero denominator in '1/0'\n")


def test_parse_scalar_reads_rational_literals_and_refuses_a_zero_denominator():
    assert parse_scalar(" -6/4 ", "rational") == Fraction(-3, 2)
    assert repr(parse_scalar("7", "rational")) == "Fraction(7, 1)"
    with pytest.raises(ScalarParseError, match="line 3: zero denominator in '0/0'"):
        parse_scalar("0/0", "rational", 3)


@pytest.mark.parametrize("p, message", [
    ("0", "error: 0 is not prime\n"),
    ("4", "error: 4 is not prime\n"),
    ("257", f"error: --p takes a prime p <= {MAX_CYCLIC_ORDER}, got 257\n"),
])
def test_substitute_checks_p_before_building_the_index(p, message, monkeypatch):
    def fail(n):
        raise AssertionError("the index was built before --p was checked")

    monkeypatch.setattr(cli, "cyclic_category", fail)
    code, out, err = run_cli("substitute", "--p", p, "--s", "1", str(DATA / "ones5.arrow"))
    assert (code, out, err) == (2, "", message)


def _run_catching_usage_errors(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(list(argv), out=out, err=err)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_calls_in_a_row_share_one_parser_and_match_fresh_calls():
    battery = [
        ("laws", "--base", "mod:4", "--family-size", "2", "--trials", "20", "--seed", "7"),
        ("validate", "--index", str(DATA / "z2.fincat")),
        ("laws", "--family-size", "two"),
        ("cauchy", "describe", "--base", "int", "--index", "cyclic:3"),
        ("laws", "--base", "mod:4", "--family-size", "2"),
        ("embed", "--which", "gamma", "--index", "cyclic:2", "--at", "*", "--index-arrow", "z1"),
        ("series", "--order", "3", "--p", "1,1", "--q", "geom:1:1/2"),
        ("validate", "--index", str(DATA / "missing_composite.fincat")),
        ("embed", "--which", "eta", "--index", "cyclic:2", "--scalar", "5"),
    ]
    in_a_row = [_run_catching_usage_errors(argv) for argv in battery]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in battery:
        cli._build_parser.cache_clear()
        fresh.append(_run_catching_usage_errors(argv))
    assert in_a_row == fresh
    assert [code for code, _, _ in in_a_row] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert "invalid int value: 'two'" in in_a_row[2][2]


CONVOLUTION_FLAGS = {"--base", "--index"}
COMMAND_FLAGS = {
    "validate": {"--index"},
    "laws": {"--base", "--seed", "--family-size", "--trials"},
    "cauchy describe": CONVOLUTION_FLAGS,
    "convolve": CONVOLUTION_FLAGS,
    "sum": CONVOLUTION_FLAGS,
    "embed": CONVOLUTION_FLAGS | {"--which", "--at", "--scalar", "--index-arrow"},
    "substitute": {"--p", "--s"},
    "product": {"--base", "--base2", "--seed", "--trials"},
    "series": {"--order", "--p", "--q"},
}


def _subcommands(parser, prefix=""):
    """Command name -> its parser, nested subcommands joined with a space."""
    commands = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = _subcommands(sub, f"{prefix}{name} ")
                commands.update(nested or {f"{prefix}{name}": sub})
    return commands


def test_each_command_takes_exactly_the_flags_it_reads():
    commands = _subcommands(cli._build_parser())
    flags = {name: {option for action in sub._actions for option in action.option_strings
                    if option not in ("-h", "--help")}
             for name, sub in commands.items()}
    assert flags == COMMAND_FLAGS
    assert sum(len(options) for options in flags.values()) == 26


@pytest.mark.parametrize("argv, flag", [
    (("validate", "--index", "cyclic:3", "--seed", "1"), "--seed"),
    (("validate", "--index", "cyclic:3", "--tolerance", "nan"), "--tolerance"),
    (("substitute", "--p", "5", "--s", "1", str(DATA / "ones5.arrow"), "--trials", "3"),
     "--trials"),
    (("product", "--base", "int", "--base2", "int", "--family-size", "3"), "--family-size"),
    (("cauchy", "describe", "--base", "int", "--seed", "1"), "--seed"),
    (("convolve", str(DATA / "f_z2.arrow"), str(DATA / "f_z2.arrow"), "--trials", "-1"),
     "--trials"),
    (("embed", "--which", "eta", "--scalar", "5", "--family-size", "99"), "--family-size"),
    (("series", "--p", "1,1", "--q", "1", "--tolerance", "1e-6"), "--tolerance"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, flag, monkeypatch):
    _refuse_any_work(monkeypatch)
    code, out, err = _run_catching_usage_errors(argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + flag in err
