import hashlib
import json
import shlex

import pytest

from lieforge.cli import main, parse_aut_expr
from lieforge.braids import (
    aut_mul,
    aut_word,
    evaluate,
    pure_a_table,
    sym_a,
    xi_word,
)
from lieforge.freelie import witt_rank
from lieforge.words import endo_equal, endo_inner, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_table(capsys):
    code, out, _ = run_cli(capsys, "witt", "--n", "3", "--max-degree", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lieforge/1"
    assert [r["formula"] for r in doc["rows"]] == [3, 3, 8, 18, 48]
    assert all(r["match"] for r in doc["rows"])


def test_witt_tsv(capsys):
    code, out, _ = run_cli(capsys, "witt", "--n", "2", "--max-degree", "3", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["degree", "formula", "lyndon_count", "match"]
    assert lines[1].split("\t") == ["1", "2", "2", "True"]


def test_degree_word(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--n", "3", "--max-degree", "6",
        "--word", "x1 x2 x1^-1 x2^-1",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["gamma_degree"] == 2
    cls = json.loads(row["lie_class"])
    assert cls == {"degree": 2, "coeffs": {"12": 1}}


def test_degree_auto(capsys):
    code, out, _ = run_cli(capsys, "degree", "--n", "2", "--max-degree", "4", "--auto", "xi")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["a_degree"] == 1


def test_expand_word(capsys):
    code, out, _ = run_cli(capsys, "expand", "--n", "2", "--max-degree", "2", "--word", "x1^-1")
    assert code == 0
    series = json.loads(json.loads(out)["rows"][0]["series"])
    assert series == {"": 1, "1": -1, "11": 1}


def test_center_cli(capsys):
    code, out, _ = run_cli(capsys, "center", "--object", "dk", "--n", "3", "--max-degree", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["rank"] for r in rows] == [1, 0, 0]
    assert all(r["match"] for r in rows)


def test_ranks_cli(capsys):
    code, out, _ = run_cli(
        capsys, "ranks", "--object", "der-t-boundary", "--n", "4", "--max-degree", "4"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["computed"] for r in rows] == [6, 4, 20, 36]


def test_census_cli(capsys):
    code, out, _ = run_cli(capsys, "census", "--n-range", "3..4", "--degree", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["gap"] for r in rows] == [4, 10]
    assert all(r["variant_closed_form_agrees"] is False for r in rows)


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "center-pn", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_verify_inner_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "inner", "--n", "2", "--max-degree", "4",
        "--samples", "10", "--seed", "42",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_johnson_seed(capsys):
    argv = ("verify", "johnson", "--family", "Pn", "--n", "3", "--max-degree", "3")
    outs = {}
    for seed in (None, "1", "2", "42"):
        code, out, _ = run_cli(capsys, *argv, *(() if seed is None else ("--seed", seed)))
        assert code == 0
        outs[seed] = out
    assert outs["1"] != outs["2"]
    assert outs["42"] == outs[None]


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "degree", "--n", "2", "--max-degree", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "census", "--n-range", "5..3", "--degree", "2")
    assert code == 2


def test_degree_auto_errors(capsys):
    for i in (1, 2):
        code, out, err = run_cli(capsys, "degree", "--n", "3", "--max-degree", "3", "--auto", f"s{i}")
        assert code == 2 and out == ""
        assert f"error: endomorphism is not IA: image of x{i} shifts the abelianization" in err
    code, out, err = run_cli(capsys, "degree", "--n", "3", "--max-degree", "1", "--auto", "A(1,2)")
    assert code == 2 and out == ""
    assert "error: cutoff degree must be at least 2" in err


def test_degree_word_cutoff_below_one(capsys):
    # the identity word is checked like any other
    for word in ("1", "x1"):
        for cutoff in ("0", "-2"):
            code, out, err = run_cli(
                capsys, "degree", "--n", "3", "--max-degree", cutoff, "--word", word
            )
            assert code == 2 and out == ""
            assert "error: cutoff degree must be at least 1" in err


def test_key_theorem_without_a_degree_is_a_usage_error(capsys):
    # an empty degree range would check nothing and report a pass
    for cutoff in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "verify", "key-theorem", "--n", "3", "--max-degree", cutoff
        )
        assert (code, out, err) == (2, "", "error: need 3 <= n <= 4 and 1 <= max_degree <= 4\n")


def test_inner_suite_without_samples_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "inner", "--n", "3", "--max-degree", "3", "--samples", "0"
    )
    assert (code, out, err) == (2, "", "error: need samples >= 1\n")


def test_deterministic_stdout(capsys):
    args = ("verify", "inner", "--n", "2", "--max-degree", "4", "--samples", "8", "--seed", "1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_removed_jobs_flag_is_rejected(capsys):
    code, _, _ = run_cli(
        capsys, "ranks", "--object", "dk", "--n", "3", "--max-degree", "3", "--jobs", "2"
    )
    assert code == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    from lieforge import suites
    from lieforge.freelie import tensor_expand_word
    from lieforge.magnus import SeriesEndo, TruncSeries

    commutator = suites.series_endo_commutator
    corrupted = []

    def extra_term(*args, **kwargs):
        # the first commutator composed is the one kept witness of layer 2:
        # its table of x_1 gains the expansion of P_122, so its Johnson image
        # is no longer the bracket of its factors' images
        se = commutator(*args, **kwargs)
        if corrupted:
            return se
        corrupted.append(se)
        parts = [dict(p) for p in se.images[0].parts]
        for m, c in tensor_expand_word((1, 2, 2)).items():
            parts[3][m] = parts[3].get(m, 0) + c
        parts[3] = {m: c for m, c in parts[3].items() if c}
        x1 = TruncSeries(se.rank_n, se.max_degree, parts)
        return SeriesEndo(se.rank_n, se.max_degree, (x1, *se.images[1:]))

    monkeypatch.setattr(suites, "series_endo_commutator", extra_term)
    code, out, err = run_cli(
        capsys, "verify", "johnson", "--family", "Pn", "--n", "3", "--max-degree", "4"
    )
    assert len(corrupted) == 1
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: Pn Johnson layer 2: the kept commutator")
    assert "Traceback" not in err


def test_unreadable_johnson_witness_is_an_internal_error(capsys, monkeypatch):
    # with the inverse's factors swapped, an inner witness's table is not an
    # automorphism's, and reading it off fails: a bug in lieforge, not a
    # usage error
    from lieforge import suites
    from lieforge.magnus import series_mul

    def swapped(p, q):
        return (
            series_mul(series_mul(series_mul(p[0], q[0]), p[1]), q[1]),
            series_mul(series_mul(series_mul(p[0], q[1]), p[1]), q[0]),
        )

    monkeypatch.setattr(suites, "pair_commutator", swapped)
    code, out, err = run_cli(
        capsys, "verify", "johnson", "--family", "Inn", "--n", "3", "--max-degree", "3"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: Inn Johnson layer 3: the kept commutator")
    assert "cannot be read off" in err


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    import lieforge.cli as cli

    def exhausted(n, k):
        raise MemoryError

    monkeypatch.setattr(cli, "braidlike_rank", exhausted)
    code, out, err = run_cli(
        capsys, "ranks", "--object", "der-t-boundary", "--n", "3", "--max-degree", "2"
    )
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_verify_takes_no_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "center-pn", "--n", "3", "--format", "tsv")
    assert code == 2 and out == ""


def test_parse_aut_expr():
    w = parse_aut_expr(3, "A(1,2).s1^-1.inn(x1 x2).C(2)^-1.xi")
    table = evaluate(w)
    assert table.rank_n == 3
    assert endo_equal(
        evaluate(parse_aut_expr(2, "A(1,2)")), pure_a_table(1, 2, 2)
    )
    assert endo_equal(
        evaluate(parse_aut_expr(2, "xi")), evaluate(xi_word(2))
    )
    assert endo_equal(
        evaluate(parse_aut_expr(2, "inn(x1)")), endo_inner(parse_word(2, "x1"))
    )
    with pytest.raises(Exception):
        parse_aut_expr(2, "Q(1)")


def test_parse_aut_expr_long_power():
    w = parse_aut_expr(3, "A(1,2)^400")
    assert len(w.symbols) == 400
    base = aut_word(3, sym_a(1, 2))
    product = aut_word(3)
    for _ in range(400):
        product = aut_mul(product, base)
    assert w == product
    assert parse_aut_expr(3, "A(1,2)^-3.xi") == aut_mul(
        base.inverse(), base.inverse(), base.inverse(), xi_word(3)
    )


# stdout digests of ops that exercise the series product, lattice membership,
# the Johnson layers, the centralizer of the boundary, the census cells, the
# Lie class of a word, the Witt table, the tangential ranks, every suite at
# once, the tsv format, the chi, c_ki and triangular tables at rank 4, and the
# quotient and central-braid suites at rank 6; keys are split like a shell
# command line
PINNED_STDOUT = {
    "ranks --object dk --n 3 --max-degree 3":
        "85a2c9f62a81246c925d2b5fef5ae8270230e96abf07c00f2e071af89e1f9125",
    "center --object dk-star --n 3 --max-degree 3":
        "68e18bd9f72b3339291eaec29ef4a841efc31d3ec5cf4a8cc978413a9c2e297f",
    "verify johnson --family FnPn --n 3 --max-degree 3":
        "1e076f9a8c7220e4de80d7c766e3f6a4c1d19791439ccd0955a9b48a1dec7152",
    "verify key-theorem --n 3 --max-degree 3":
        "04054c38c6833b181ec1acd7eff304aacd0bd8e6d2aad17fca66c0a3de4c4b54",
    "verify triangular --n 3":
        "af9947e0f92f9c7e82138020bd17d998bfe583660b4f98bced4f7fbca39e51aa",
    "census --n-range 3..4 --degree 3":
        "fa77de470de2371aec859fbd3db4fbe39212e7addf1b8b8d2acb2138e906b8ee",
    "verify johnson --family Pn --n 3 --max-degree 4":
        "ca3f7c0436daa98e5f2d2ef839a3b7389a2f00bc6fcbe66e1c31012d6df3db25",
    "verify inner --n 3 --max-degree 5 --samples 20 --seed 0":
        "10c2264c4f310daaf8c8099e429f7973a58ec1121eff7014aedc8ab39b625af8",
    "center --object dk --n 4 --max-degree 4":
        "863ce6e18e84378323ccf8c7806697dfccdaff7fc7b5cb6f3c0d108e1de795a6",
    "ranks --object der-t-boundary --n 4 --max-degree 5":
        "d96d516fb5e0d0c06b12433d4b06c734941bb965e79efcb41f29b3660849e996",
    "ranks --object der-t-boundary --n 5 --max-degree 5":
        "cf852de9da4a7d277c3dce35c437f63fb38ce1f7ab7cd7268138680ecea2ee97",
    "ranks --object der-t-boundary --n 6 --max-degree 5":
        "bcc1c7e173284e053d4700f3a28ceb32b67e72f18eab410d8cd3d1907e013f08",
    "census --n-range 3..5 --degree 4":
        "1a8b66a70ef218ac188159111c8554f2ae816d79cb3fa733f2a9b195e2929212",
    "verify johnson --family Inn --n 4 --max-degree 4":
        "ca7fe58b90f4b8622977f022e8f5c01b9421edacced21d3d3aa3721582c1029a",
    "verify johnson --family FnPn --n 3 --max-degree 5":
        "e93325fef5b46bd4d7c75e553394279414710eab11db68bcb844921639c91dc7",
    "degree --n 4 --max-degree 4 --auto A(1,2).A(2,3).A(1,2)^-1.A(2,3)^-1":
        "539e59af3f9a5d40063e69e845cec353e64651acf76c17d80ca271c5f72a2500",
    "degree --n 3 --max-degree 4 --auto xi.A(1,3)":
        "7499bc2ddd14f53134fd23244bff73df97ad0f1015788a970b17ca5348b85daa",
    "verify johnson --family Pn --n 4 --max-degree 3":
        "be207632ae8a19c74eb030eb775c7215555f5fd64619c5095bc3dad99038ade1",
    "degree --n 3 --max-degree 6 --word 'x1 x2 x1^-1 x2^-1'":
        "ca07ef9e5721a7b0a27820b4a9e96ce668d0d09dad31cb4ce55684426597f22c",
    "degree --n 3 --max-degree 5 --word 'x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1'":
        "7803cec1e44ecc19d0b469d6d6fbcb9840178ff21d11f8c6e36a9ef18859d948",
    "ranks --object der-t-boundary --n 1 --max-degree 2":
        "10773d3324e973718de12576b0288594175860940e49cb01754e9378353bf231",
    "ranks --object der-t-boundary --n 3 --max-degree 0":
        "74b979786c11cbe1edc3a3713ab605e433d4caa1787e37883829147e09381aad",
    "ranks --object der-t-boundary --n 7 --max-degree 5":
        "19771b6eb8a66ec6946ac92296dd6c59db3085a95aa620191c065331e69d852a",
    "witt --n 3 --max-degree 7":
        "3ad449b0e34c673092ac73f04087f257310db6bf5ffb113ffe22041b108bba8e",
    "ranks --object tangential --n 4 --max-degree 4":
        "086f54d7823573c25529a155af2b17f69ce685b220bf889a78f9854079fc9e19",
    "verify all --n 3 --max-degree 4":
        "e62b9f703bad6da779f35964cebba9bfa2f13065b72992a176716c635db24192",
    "ranks --object dk --n 3 --max-degree 3 --format tsv":
        "de2a964a1707995a22250f6e6cf77d08acba3b9abba4069fee0e6e75fcbd22ff",
    "degree --n 4 --max-degree 5 --auto chi(3,1).chi(3,2).chi(3,1)^-1.chi(3,2)^-1":
        "f9f4f518a449e3d338d0cd7319637ffbbb0a86709bf2710eb4e37e447bf47866",
    "expand --n 4 --max-degree 4 --auto chi(3,1).chi(4,2)^-1":
        "025085efa321059bb8c5b88953c704e680398a186973b0a808a5dd0413dceccb",
    "verify triangular --n 4":
        "7b3fbe09e46fed7e57490170175a4d09a0447f102bb05e5c6c0b9ce1a63ea0f9",
    "verify quotient --n 6":
        "b027dac029fa1efbcefbd2f9fee759abe5e966d2021620fe1409fbe9701287b3",
    "verify center-pn --n 6":
        "aacbd3019174b03db82662b0cde524610c9a0c9a31e6dd7ed6b3da3aca4892c1",
}


@pytest.mark.parametrize("op", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, op):
    code, out, _ = run_cli(capsys, *shlex.split(op))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[op]


def test_braidlike_ranks_of_no_generators_are_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "ranks", "--object", "der-t-boundary",
                             "--n", "0", "--max-degree", "2")
    assert (code, out, err) == (2, "", "error: need n >= 1 and k >= 1\n")


def test_rank_commands_form_no_relation_lattice(capsys, monkeypatch):
    # the braid-like ranks come from the boundary images alone: with every
    # relation route raising, the ranks and census print their pinned
    # bytes, and no builder is wider than a Lyndon basis of degree k + 1
    import lieforge.zlattice as zlattice
    from lieforge import dk, freelie

    def forbidden(*args):
        raise AssertionError("a relation lattice was formed")

    monkeypatch.setattr(zlattice, "_relations", forbidden)
    for mod in (zlattice, dk, freelie):
        monkeypatch.setattr(mod, "relations_among", forbidden)
    widths = []
    init = zlattice.LatticeBuilder.__init__

    def recording_init(self, ambient_dim):
        widths.append(ambient_dim)
        init(self, ambient_dim)

    monkeypatch.setattr(zlattice.LatticeBuilder, "__init__", recording_init)
    op = "ranks --object der-t-boundary --n 4 --max-degree 5"
    code, out, _ = run_cli(capsys, *shlex.split(op))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[op]
    assert widths == [witt_rank(4, k + 1) for k in range(1, 6)]
    op = "census --n-range 3..5 --degree 4"
    code, out, _ = run_cli(capsys, *shlex.split(op))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[op]


def test_braidlike_rank_is_computed_not_read_off_the_formula(capsys, monkeypatch):
    # with no boundary images the rank is the whole coordinate count, which
    # disagrees with the formula in every degree
    from lieforge import derivations

    monkeypatch.setattr(derivations, "_boundary_brackets", lambda n, k: iter(()))
    code, out, _ = run_cli(capsys, "ranks", "--object", "der-t-boundary",
                           "--n", "3", "--max-degree", "3")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [r["computed"] for r in rows] == [6, 9, 24]
    assert not any(r["match"] for r in rows)


def test_shared_parser_survives_errors_and_help(capsys, monkeypatch):
    # the parser is built once per process and serves every later call, so
    # a usage error, --help or a rejected option must leave it intact
    import lieforge.cli as cli

    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    code, out, _ = run_cli(capsys, "degree", "--n", "2", "--bogus")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: lieforge")
    code, out, _ = run_cli(capsys, "degree", "--help")
    assert code == 0 and out.startswith("usage: lieforge degree")
    code, _, _ = run_cli(
        capsys, "ranks", "--object", "dk", "--n", "3", "--max-degree", "3", "--jobs", "2"
    )
    assert code == 2
    for op in sorted(PINNED_STDOUT):
        code, out, _ = run_cli(capsys, *shlex.split(op))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[op], op
    assert len(builds) == 1
