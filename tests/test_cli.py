"""CLI round trips: file formats, subcommand artifacts, manifests, and the
exit-status contract."""

import argparse
import csv
import json
import os
import warnings

import numpy as np
import pytest

import qharm.verify as verify
from oracles import read_function_csv_ref, write_function_csv_ref
from qharm.cli import (
    _ROW_BLOCK,
    build_parser,
    main,
    read_function_csv,
    read_set_file,
    write_function_csv,
    write_set_file,
)
from qharm.errors import InputFormatError, SizeCapError
from qharm.groups import get_characters, get_group


def test_function_csv_round_trip(tmp_path):
    path = tmp_path / "f.csv"
    vals = np.array([1 + 2j, -0.5, 0, 3.25j])
    write_function_csv(str(path), vals)
    back = read_function_csv(str(path), 4)
    assert np.array_equal(back, vals)


def test_function_csv_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0\nnot,a,row\n")
    with pytest.raises(InputFormatError, match=":2"):
        read_function_csv(str(path), 4)


def _read_both(path, size):
    """(values or error message) from read_function_csv and from the per-line reference."""
    out = []
    for reader in (read_function_csv, read_function_csv_ref):
        try:
            out.append(reader(str(path), size).tobytes())
        except InputFormatError as e:
            out.append(str(e))
    return out


READER_CASES = {
    "plain": "0,1,2\n1,3.5,-4\n15,1e-5,1e16\n",
    "header with spaces": " index , re , im \n0,1,2\n3,-1.5,0.25\n",
    "header on line 2": "0,1,2\nindex,re,im\n",
    "blank and whitespace-only lines": "\n0,1,2\n   \n\t\n3,4,5\n\n",
    "CRLF line endings": "index,re,im\r\n0,1,2\r\n1,3,4\r\n",
    "CR line endings": "0,1,2\r1,3,4\r",
    "2-column rows": "index,re,im\n0,1\n1,2,3\n",
    "2-column file": "0,1\n1,-2.5\n15,1e-5\n",
    "2-column file with the header": "index,re,im\n0,1\n3,nan\n",
    "2-column file with an index,re header": "index,re\n0,1\n",
    "2-column file after blank lines": "\n\n0,1\n1,2\n",
    "2-column CRLF file": "0,1\r\n1,2\r\n",
    "2-column then 3-column rows": "0,1\n1,2,3\n",
    "2-column repeated index": "0,1\n0,2\n",
    "2-column too-large index": "0,1\n512,2\n",
    "2-column row with a trailing comma": "0,1,\n",
    "4-column rows": "0,1,2,3\n",
    "repeated index": "0,1,2\n1,5,5\n0,3,4\n",
    "1_0 as an index": "1_0,1,2\n",
    "1.0 as an index": "0,1,2\n1.0,1,2\n",
    "non-ASCII digit as an index": "\u0663,1,2\n",
    "non-ASCII letter beside an index": "1\u01fe,1,2\n",  # numpy reads 472
    "separator beside a value": "0,1\x1c,2\n",
    "nan, -inf, -0.0": "0,nan,-inf\n1,-0.0,inf\n2,-nan,NaN\n",
    "negative index": "0,1,2\n-1,1,2\n",
    "too-large index": "512,1,2\n",
    "empty file": "",
    "header-only file": "index,re,im\n",
}


@pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
def test_function_csv_reader_matches_per_line_reference(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = _read_both(path, 512)
    assert got == want


def test_two_column_function_csv_takes_the_numpy_path(tmp_path, monkeypatch):
    """`index,re` files are read by numpy, not the per-line reader."""
    import qharm.cli as cli

    path = tmp_path / "f.csv"
    path.write_text("index,re,im\n" + "".join(f"{i},{i / 4}\n" for i in range(300)))
    monkeypatch.setattr(cli, "_read_function_lines", lambda p, size: pytest.fail("per-line reader used"))
    values = read_function_csv(str(path), 512)
    assert values.tobytes() == read_function_csv_ref(str(path), 512).tobytes()


def test_function_csv_reader_matches_reference_on_random_text(tmp_path):
    """Rows built from number-like pieces, so both readers' paths and most
    error messages occur."""
    rng = np.random.default_rng(5)
    pieces = ["0", "3", "15", "16", "-1", "+2", "1_0", "2.0", "0.5", "-0.0", "1e-5", "nan", "-inf",
              "", " ", "\t", "\x0b", "\x1c", "\xa0", "\u0663", "x"]
    path = tmp_path / "f.csv"
    for _ in range(300):
        lines = []
        for _ in range(rng.integers(0, 5)):
            fields = ["".join(rng.choice(pieces, size=rng.integers(1, 3))) for _ in range(rng.choice([2, 3, 3, 3, 4]))]
            lines.append(",".join(fields))
        path.write_bytes(("\n".join(lines) + rng.choice(["", "\n", "\r\n"])).encode())
        got, want = _read_both(path, 16)
        assert got == want, path.read_bytes()


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex64, np.complex128])
def test_function_csv_writer_is_byte_identical_to_reference(tmp_path, dtype):
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5]
    rng = np.random.default_rng(3)
    n = 2 * _ROW_BLOCK + 5  # rows past a block boundary keep their global index
    if np.issubdtype(dtype, np.integer):
        values = rng.integers(-(2**62), 2**62, size=n).astype(dtype)
    else:
        parts = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, size=n)
        parts[: len(specials)] = specials
        values = np.zeros(n, dtype=dtype)
        values.real = parts
        if np.issubdtype(dtype, np.complexfloating):
            values.imag = np.roll(parts, 1)
    write_function_csv(str(tmp_path / "new.csv"), values)
    write_function_csv_ref(str(tmp_path / "ref.csv"), values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("argv", [["global-audit"], ["project-degree", "--d", "1"]])
@pytest.mark.parametrize("text", ["0,1,0\n1,nan,0\n2,0,1\n", "0,1\n1,-inf\n"], ids=["3-column", "2-column"])
def test_cli_refuses_non_finite_function_values_with_status_2(tmp_path, capsys, argv, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, "--input", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: function value ") and err.endswith(" is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (["fourier", "--q", "2", "--n", "1", "--m", "1", "--input"], b"0,1,2\n\xff\xfe,1\n"),
    (["bogolyubov", "--q", "2", "--n", "2", "--set"], b"1,0,0,1\n\xff\n"),
])
def test_cli_undecodable_input_exits_with_status_2(tmp_path, capsys, argv, text):
    path = tmp_path / "in.txt"
    path.write_bytes(text)
    assert main([*argv, str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_set_file_round_trip_and_validation(tmp_path):
    g = get_group("sl", 2, 2)
    path = tmp_path / "set.txt"
    ordinals = np.array([0, 3, 5])
    write_set_file(str(path), g, ordinals)
    back = read_set_file(str(path), g)
    assert np.array_equal(back, ordinals)
    # identity line parses to the identity element
    (tmp_path / "ident.txt").write_text("1,0,0,1\n")
    assert list(read_set_file(str(tmp_path / "ident.txt"), g)) == [g.identity]
    # a singular matrix is rejected with its line number
    (tmp_path / "bad.txt").write_text("1,0,0,1\n1,1,1,1\n")
    with pytest.raises(InputFormatError, match=":2"):
        read_set_file(str(tmp_path / "bad.txt"), g)


def test_empty_set_file_is_valid(tmp_path):
    g = get_group("sl", 2, 2)
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert read_set_file(str(path), g).size == 0


def test_cli_field_info(tmp_path):
    out = tmp_path / "out"
    rc = main(["field-info", "--q", "4", "-o", str(out)])
    assert rc == 0
    data = json.loads((out / "field_q4.json").read_text())
    assert data["p"] == 2 and data["m"] == 2
    assert (out / "field-info_manifest.json").exists()


def test_cli_fourier_constant(tmp_path):
    out = tmp_path / "out"
    f = tmp_path / "const1.csv"
    write_function_csv(str(f), np.ones(2))
    rc = main(["fourier", "--q", "2", "--n", "1", "--m", "1", "--input", str(f), "-o", str(out)])
    assert rc == 0
    spec = read_function_csv(str(out / "spectrum.csv"), 2)
    assert abs(spec[0] - 1) < 1e-12 and abs(spec[1]) < 1e-12


def test_cli_global_audit_on_set(tmp_path):
    g = get_group("sl", 2, 2)
    out = tmp_path / "out"
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.arange(g.size))
    rc = main([
        "global-audit", "--q", "2", "--n", "2", "--m", "2", "--group", "sl",
        "--set", str(setfile), "--dmax", "1", "-o", str(out),
    ])
    # the full-group indicator fails the q^{zeta d n}-threshold at order 1
    data = json.loads((out / "global_audit.json").read_text())
    assert any(not row["pass"] for row in data["rows"]) == (rc == 1)


def test_cli_reports_read_back_as_their_rows(tmp_path):
    # audit witnesses such as site#0(dimV'=0,dimW'=1)@T=3 hold commas: a
    # report read back by csv.DictReader gives every row's fields as written
    from qharm.globality import global_audit, influence_audit, set_global_audit
    from qharm.scheme import get_scheme

    g = get_group("sl", 2, 3)
    ordinals = np.random.default_rng(3).choice(g.size, size=7, replace=False)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, ordinals)
    values = np.zeros(get_scheme(3, 2, 2).size, dtype=np.complex128)
    values[g.elements[np.sort(ordinals)]] = 1.0
    f = get_scheme(3, 2, 2).table(values)
    group = ["--q", "3", "--n", "2", "--set", str(setfile)]
    reports = [("global-audit", ["--m", "2"], "global_audit.csv", global_audit(f, 2).as_rows()),
               ("influence-audit", ["--m", "2"], "influence_audit.csv", influence_audit(f, 2).as_rows()),
               ("set-audit", [], "set_audit.csv", set_global_audit(g, ordinals).report.as_rows())]
    for cmd, extra, name, rows in reports:
        out = tmp_path / cmd
        main([cmd, *group, *extra, "-o", str(out)])
        with open(out / name, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert any("," in row["witness"] for row in rows)
        assert got == [{k: str(v) for k, v in row.items()} for row in rows]


def test_cli_levels_and_isotypic(tmp_path):
    out = tmp_path / "out"
    rc = main(["levels", "--q", "2", "--n", "2", "--group", "sl", "-o", str(out)])
    assert rc == 0
    rows = (out / "level_dims.csv").read_text().strip().splitlines()
    assert rows[-1].endswith("6")  # dims saturate at |SL_2(F_2)| = 6
    manifest = json.loads((out / "levels_manifest.json").read_text())
    assert manifest["config"] == {"group": "sl", "n": 2, "q": 2, "dmax": 2}
    rc = main(["isotypic", "--q", "2", "--n", "2", "--group", "sl", "-o", str(out)])
    assert rc == 0
    data = json.loads((out / "isotypic.json").read_text())
    assert data["sum_of_squares"] == 6
    manifest = json.loads((out / "isotypic_manifest.json").read_text())
    assert manifest["config"] == {"group": "sl", "n": 2, "q": 2}


@pytest.mark.parametrize("kind,n,q", [("sl", 2, 3), ("sl", 3, 2), ("gl", 2, 3)])
def test_cli_isotypic_writes_the_irreducibles(tmp_path, kind, n, q):
    # irreducibles.csv holds, per irreducible of the character table, its
    # degree, level and the dimension of its H_d-fixed vectors, d = 0..n
    out = tmp_path / "out"
    assert main(["isotypic", "--q", str(q), "--n", str(n), "--group", kind, "-o", str(out)]) == 0
    lines = (out / "irreducibles.csv").read_text().splitlines()
    assert lines[0] == "index,degree,level," + ",".join(f"fixed_h{d}" for d in range(n + 1))
    table = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
    chars = get_characters(get_group(kind, n, q))
    assert np.array_equal(table[:, 0], np.arange(len(chars.degrees)))
    assert np.array_equal(table[:, 1], chars.degrees) and np.array_equal(table[:, 2], chars.levels)
    assert np.array_equal(table[:, 3:], chars.fixed)
    data = json.loads((out / "isotypic.json").read_text())
    for d in range(n + 1):
        assert sorted(table[table[:, 2] == d, 1].tolist()) == data["component_dims"][str(d)]
    manifest = json.loads((out / "isotypic_manifest.json").read_text())
    assert manifest["artifacts"] == [str(out / "isotypic.json"), str(out / "irreducibles.csv")]


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "2"],
    ["levels", "--cache-dir", "cache"],
    ["opnorm", "--set", "a.txt", "--method", "power"],
    ["verify", "--q", "3"],
    ["verify", "--n", "3"],
    ["verify", "--group", "gl"],
    ["verify", "--max-domain", "64"],
    ["field-info", "--n", "3"],
    ["field-info", "--max-domain", "64"],
    ["fourier", "--input", "f.csv", "--max-domain", "64"],
    ["global-audit", "--input", "f.csv", "--max-domain", "64"],
    ["levels", "--max-domain", "64"],
    ["bogolyubov", "--set", "a.txt", "--max-domain", "64"],
    ["field-info", "--seed", "1"],
    ["fourier", "--input", "f.csv", "--seed", "1"],
    ["fourier", "--input", "f.csv", "--zeta", "0.1"],
    ["fourier", "--input", "f.csv", "--c", "0.1"],
    ["levels", "--seed", "1"],
    ["levels", "--zeta", "0.1"],
    ["isotypic", "--c", "0.1"],
    ["opnorm", "--set", "a.txt", "--zeta", "0.1"],
    ["mixing", "--set", "a.txt", "--set2", "b.txt", "--seed", "1"],
    ["bogolyubov", "--set", "a.txt", "--c", "0.1"],
    ["isotypic", "--trials", "5"],
    ["isotypic", "--seed", "1"],
    ["levels", "--include-dual"],
])
def test_cli_rejects_removed_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_manifests_record_mode_and_zeta(tmp_path):
    f = tmp_path / "f.csv"
    write_function_csv(str(f), np.arange(16.0))
    scheme = ["--q", "2", "--n", "2", "--m", "2", "--input", str(f)]
    manifests = []
    for mode in ("pure", "cumulative"):
        out = tmp_path / mode
        assert main(["project-degree", *scheme, "--d", "1", "--mode", mode, "-o", str(out)]) == 0
        manifests.append((out / "project-degree_manifest.json").read_bytes())
    assert manifests[0] != manifests[1]
    out = tmp_path / "audit"
    main(["influence-audit", *scheme, "--zeta", "0.5", "-o", str(out)])
    assert json.loads((out / "influence-audit_manifest.json").read_text())["config"]["zeta"] == 0.5


@pytest.mark.parametrize("cmd", ["levels", "set-audit"])
def test_cli_rejects_negative_order(tmp_path, cmd):
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), get_group("sl", 2, 3), [0, 1])
    out = tmp_path / "out"
    argv = [cmd, "--q", "3", "--n", "2", "--group", "sl", "--dmax", "-1", "-o", str(out)]
    if cmd == "set-audit":
        argv += ["--set", str(setfile)]
    assert main(argv) == 2
    assert not (out / "level_dims.csv").exists() and not (out / "set_audit.csv").exists()


def test_cli_mixing_and_opnorm(tmp_path):
    g = get_group("sl", 2, 3)
    rng = np.random.default_rng(1)
    out = tmp_path / "out"
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    write_set_file(str(fa), g, rng.choice(g.size, size=10, replace=False))
    write_set_file(str(fb), g, rng.choice(g.size, size=8, replace=False))
    rc = main(["mixing", "--q", "3", "--n", "2", "--set", str(fa), "--set2", str(fb), "-o", str(out)])
    assert rc == 0
    rc = main(["opnorm", "--q", "3", "--n", "2", "--set", str(fa), "-o", str(out)])
    assert rc == 0
    rc = main(["convolve", "--q", "3", "--n", "2", "--set", str(fa), "--set2", str(fb), "-o", str(out)])
    assert rc == 0


def test_cli_convolve_refuses_groups_above_the_multiplication_table_cap(tmp_path, capsys):
    # GL_2(F_11) (|G| = 13,200) builds, but convolution and the character
    # table behind levels and isotypic read the multiplication table, which
    # is refused above 6,000 elements
    g = get_group("gl", 2, 11)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, [0, 1, 2])
    group = ["--q", "11", "--n", "2", "--group", "gl"]
    for argv, written in ((["convolve", "--set", str(setfile), "--set2", str(setfile)], "convolution.csv"),
                          (["levels"], "level_dims.csv"), (["isotypic"], "isotypic.json")):
        out = tmp_path / argv[0]
        assert main([*argv, *group, "-o", str(out)]) == 2
        assert "multiplication table refused for |G|=13200" in capsys.readouterr().err
        assert not (out / written).exists()


def test_cli_bogolyubov_on_coset(tmp_path):
    g = get_group("sl", 3, 2)
    from qharm.globality import GoodUmvirate

    gu = GoodUmvirate(g, 1, 11, 60)
    out = tmp_path / "out"
    setfile = tmp_path / "coset.txt"
    write_set_file(str(setfile), g, gu.members())
    rc = main(["bogolyubov", "--q", "2", "--n", "3", "--set", str(setfile), "-o", str(out)])
    assert rc == 0
    data = json.loads((out / "bogolyubov.json").read_text())
    assert data["contained_density"] == 6 / 168
    assert data["contained_k"] == 1


def test_cli_bogolyubov_rejects_gl_beyond_f2(tmp_path, capsys, monkeypatch):
    # good umvirates are cosets of SL_{n-k}: they cannot partition GL_2(F_3) umvirates,
    # and the command refuses the group before it runs the containment search
    def search(a):
        raise RuntimeError("the containment search ran")

    monkeypatch.setattr("qharm.cli.bogolyubov_search", search)
    g = get_group("gl", 2, 3)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.random.default_rng(4).choice(g.size, size=12, replace=False))
    out = tmp_path / "out"
    rc = main(["bogolyubov", "--q", "3", "--n", "2", "--group", "gl", "--set", str(setfile), "-o", str(out)])
    assert rc == 2
    assert "inside SL_n" in capsys.readouterr().err
    assert not (out / "bogolyubov.json").exists()


def test_cli_approx_group(tmp_path):
    g = get_group("sl", 3, 2)
    from qharm.globality import block_subgroup_members

    out = tmp_path / "out"
    setfile = tmp_path / "sub.txt"
    write_set_file(str(setfile), g, block_subgroup_members(g, 1))
    rc = main(["approx-group", "--q", "2", "--n", "3", "--set", str(setfile), "-o", str(out)])
    assert rc == 0
    data = json.loads((out / "approx_group.json").read_text())
    assert data["K"] == 1.0 and data["covers"] and data["inside_A5"]


def test_cli_unknown_q_is_actionable(tmp_path):
    rc = main(["field-info", "--q", "6", "-o", str(tmp_path)])
    assert rc == 2


def test_cli_determinism(tmp_path):
    g = get_group("sl", 2, 3)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.arange(7))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):  # the first seven elements violate the audit: status 1
        assert main(["set-audit", "--q", "3", "--n", "2", "--set", str(setfile), "-o", str(out)]) == 1
    assert (out1 / "set_audit.csv").read_bytes() == (out2 / "set_audit.csv").read_bytes()


def test_cli_set_audit_of_the_whole_group_exits_0(tmp_path, capsys):
    g = get_group("sl", 2, 3)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.arange(g.size))
    assert main(["set-audit", "--q", "3", "--n", "2", "--set", str(setfile), "-o", str(tmp_path / "out")]) == 0
    assert "VIOLATION" not in capsys.readouterr().out


def test_cli_set_audit_refuses_orders_above_2n(tmp_path, capsys):
    g = get_group("sl", 2, 3)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.arange(7))
    out = tmp_path / "out"
    argv = ["set-audit", "--q", "3", "--n", "2", "--set", str(setfile), "-o", str(out)]
    assert main(argv + ["--dmax", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "set_audit.csv").exists()
    assert main(argv + ["--dmax", "4"]) == 1


# one small run of every subcommand, in a directory holding f.csv (a
# function on L(F_2^2, F_2^2)), a.txt and b.txt (sets of SL_2(F_3)) and
# g.txt (all of SL_2(F_3))
SCHEME_RUN = ["--q", "2", "--n", "2", "--m", "2", "--input", "f.csv"]
GROUP_RUN = ["--q", "3", "--n", "2"]
SUBCOMMAND_RUNS = {
    "field-info": ["--q", "4"],
    "fourier": SCHEME_RUN,
    "project-degree": [*SCHEME_RUN, "--d", "1"],
    "global-audit": [*SCHEME_RUN, "--dmax", "1"],
    "influence-audit": [*SCHEME_RUN, "--dmax", "1"],
    "set-audit": [*GROUP_RUN, "--set", "a.txt"],
    "levels": GROUP_RUN,
    "isotypic": GROUP_RUN,
    "opnorm": [*GROUP_RUN, "--set", "a.txt"],
    "convolve": [*GROUP_RUN, "--set", "a.txt", "--set2", "b.txt"],
    "mixing": [*GROUP_RUN, "--set", "a.txt", "--set2", "b.txt"],
    "product-mixing": [*GROUP_RUN, "--set", "a.txt", "--set2", "b.txt", "--set3", "g.txt"],
    "bogolyubov": [*GROUP_RUN, "--set", "a.txt"],
    "approx-group": [*GROUP_RUN, "--set", "g.txt"],
    "verify": [],
}


def test_every_subcommand_has_a_small_run():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(SUBCOMMAND_RUNS)


@pytest.mark.parametrize("cmd", SUBCOMMAND_RUNS)
def test_cli_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch, cmd):
    monkeypatch.setattr(verify, "CRITERIA", [])  # verify's own run is test_acceptance's
    monkeypatch.chdir(tmp_path)
    g = get_group("sl", 2, 3)
    write_function_csv("f.csv", np.arange(16.0))
    write_set_file("a.txt", g, np.arange(0, g.size, 3))
    write_set_file("b.txt", g, np.arange(1, g.size, 4))
    write_set_file("g.txt", g, np.arange(g.size))
    assert main([cmd, *SUBCOMMAND_RUNS[cmd], "-o", "out"]) in (0, 1)
    manifest = json.loads((tmp_path / "out" / f"{cmd}_manifest.json").read_text())
    assert manifest["command"] == cmd
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        [f"{cmd}_manifest.json"] + [os.path.basename(path) for path in manifest["artifacts"]])
    assert all(os.path.dirname(path) == "out" for path in manifest["artifacts"])
    if cmd == "fourier":
        assert manifest["config"] == {"m": 2, "n": 2, "q": 2}


@pytest.mark.parametrize("argv", [["set-audit", "--q", "2", "--n", "3"],
                                  ["bogolyubov", "--q", "2", "--n", "3"],
                                  ["global-audit", "--q", "2", "--n", "3", "--m", "3"]], ids=lambda argv: argv[0])
def test_cli_refuses_a_nan_zeta_with_status_2(tmp_path, capsys, argv):
    # a NaN threshold judged every order a violation in set-audit and none in
    # the bump search behind bogolyubov, which reported the set as global
    g = get_group("sl", 3, 2)
    setfile = tmp_path / "a.txt"
    write_set_file(str(setfile), g, np.random.default_rng(1).choice(g.size, size=60, replace=False))
    out = tmp_path / "out"
    assert main([*argv, "--set", str(setfile), "--zeta", "nan", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: zeta=nan must be finite and >= 0\n"
    assert not out.exists()


# SHA-256 of every file that bogolyubov, approx-group and set-audit write for
# the set below, recorded before the product sets became masks and the set
# audit's witnesses a per-cell memo; set_audit.csv was re-recorded once its
# witnesses, which hold commas, were quoted.  The outputs are count ratios
# and umvirate descriptions, not floating-point sums, so they must not move
# by a byte.
GROUP_OUTPUT_DIGESTS = {
    "approx-group_manifest.json": "b7c4ee5a973112c21f4bcb02514dc9e909d6e12912b0ed0ee3a255d06a2e9a8b",
    "approx_group.json": "0be53ff2af5ee0e2553965b239fb076d6c724c247866eba015d394905bb9bceb",
    "bogolyubov.json": "7c880b85775e85a39a8588dbc5096f3e480d15dc702aae9edb237a22fa105a11",
    "bogolyubov_manifest.json": "e35b129b2359168d2cb8369d87c45a6ccca95e194834dfaf05c1f4e96faa578a",
    "set-audit_manifest.json": "38835d2bf339669213060c8fd7e842ec0d6e635a2aeb413ae89dcdffc08d2573",
    "set_audit.csv": "2d4cfb94357925ef5a9c06be29140cc9c8d03b4d9c31530420d62ecb5647605b",
}


def test_cli_group_outputs_are_byte_identical_to_recorded_digests(tmp_path, monkeypatch):
    import hashlib

    from qharm.globality import block_subgroup_members

    g = get_group("sl", 3, 2)
    base = np.concatenate([block_subgroup_members(g, 1), np.random.default_rng(0).choice(g.size, size=1)])
    monkeypatch.chdir(tmp_path)  # relative paths keep the manifests free of tmp_path
    write_set_file("a.txt", g, np.union1d(base, g.inv[base]))
    for cmd, status in (("bogolyubov", 0), ("approx-group", 0), ("set-audit", 1)):  # the set violates the audit
        assert main([cmd, "--q", "2", "--n", "3", "--set", "a.txt", "-o", "out"]) == status
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path / "out"))}
    assert digests == GROUP_OUTPUT_DIGESTS


# SHA-256 of the manifest product-mixing writes for the three seeded sets
# below, and the fields of its JSON, recorded from the command as it stood
# before this test was added.  `per_level` holds inner products of level
# projections, which move in their last bits with the level projector, and
# `decomposition_residual` is rounding noise; every other field is exact.
PRODUCT_MIXING_MANIFEST_DIGEST = "71a5701e8c87a4b5ccd6ed00fbc5dea638e0623ebc2f53df97b217d37484f17e"
PRODUCT_MIXING_JSON = {
    "bound": 0.023493531796045724,
    "bound_ratio": 0.07389740828168355,
    "covers": True,
    "deviation": 0.001736111111111105,
    "triple": 0.038194444444444434,
    "triple_bound": 0.023493531796045724,
    "triple_deviation": 0.001736111111111105,
}
PRODUCT_MIXING_PER_LEVEL = [0.003906249999999999, -0.0021701388888888873]


def test_cli_product_mixing_outputs_are_byte_identical_to_recorded_digests(tmp_path, monkeypatch):
    import hashlib

    g = get_group("sl", 2, 3)
    rng = np.random.default_rng(3)
    monkeypatch.chdir(tmp_path)
    for name, size in (("a.txt", 9), ("b.txt", 8), ("c.txt", 7)):
        write_set_file(name, g, rng.choice(g.size, size=size, replace=False))
    argv = ["product-mixing", "--q", "3", "--n", "2", "--set", "a.txt", "--set2", "b.txt", "--set3", "c.txt"]
    assert main([*argv, "-o", "out"]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["product-mixing_manifest.json", "product_mixing.json"]
    manifest = (tmp_path / "out" / "product-mixing_manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == PRODUCT_MIXING_MANIFEST_DIGEST
    data = json.loads((tmp_path / "out" / "product_mixing.json").read_text())
    per_level, residual = data.pop("per_level"), data.pop("decomposition_residual")
    assert data == PRODUCT_MIXING_JSON
    assert len(per_level) == len(PRODUCT_MIXING_PER_LEVEL)
    for got, want in zip(per_level, PRODUCT_MIXING_PER_LEVEL):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert 0 <= residual < 1e-15


def test_cli_verify_exits_0_iff_every_criterion_passes(tmp_path, capsys, monkeypatch):
    import qharm.verify as verify

    def stub(name, passed):
        return lambda: verify.CheckResult(name, passed, 0.0, "stub")

    monkeypatch.setattr(verify, "CRITERIA", [("1", stub("passing", True)), ("2", stub("failing", False))])
    assert main(["verify", "-o", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["[PASS] criterion 1: passing (0.0s) - stub", "[FAIL] criterion 2: failing (0.0s) - stub"]
    assert lines[2].startswith("[FAIL] criterion 9: end-to-end verify in ")
    monkeypatch.setattr(verify, "CRITERIA", [("1", stub("passing", True))])
    assert main(["verify", "-o", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("[PASS] criterion 9: end-to-end verify in ")
    assert json.loads((tmp_path / "out" / "verify_manifest.json").read_text())["command"] == "verify"


def test_cli_refuses_site_stacks_above_the_cap_with_status_2(tmp_path, capsys, monkeypatch):
    import qharm.scheme as scheme

    # a fresh scheme cache, so that no earlier test has built the stacks;
    # (2,2,2) has 1 order-0 site and 6 order-1 sites of N = 16 indices each
    monkeypatch.setattr(scheme, "_SCHEME_CACHE", {})
    monkeypatch.setattr(scheme, "_SITE_STACK_CAP", 50)
    path = tmp_path / "f.csv"
    write_function_csv(str(path), np.arange(16, dtype=np.complex128))
    for cmd in ("global-audit", "influence-audit"):
        argv = [cmd, "--q", "2", "--n", "2", "--m", "2", "--input", str(path), "--dmax", "1"]
        assert main([*argv, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the order-1 site stacks of SchemeCtx(q=2, n=2, m=2) would hold 6 x 16")
        assert "Traceback" not in err


def test_cli_refuses_an_oversized_order_before_auditing_any_order(tmp_path, capsys, monkeypatch):
    import qharm.calculus as calculus
    import qharm.scheme as scheme

    # (2,2,2) has 1, 6 and 11 sites at orders 0, 1 and 2, of N = 16 indices
    # each, so a cap of 100 refuses order 2 alone
    monkeypatch.setattr(scheme, "_SCHEME_CACHE", {})
    monkeypatch.setattr(scheme, "_SITE_STACK_CAP", 100)
    built = []

    def counted(build):
        def wrapper(*args):
            built.append(build.__name__)
            return build(*args)
        return wrapper

    # every site stack row and every Laplacian mask V1 goes through one of these
    monkeypatch.setattr(scheme.SchemeCtx, "_coset_members", counted(scheme.SchemeCtx._coset_members))
    monkeypatch.setattr(calculus, "_quotient_image", counted(calculus._quotient_image))
    path = tmp_path / "f.csv"
    write_function_csv(str(path), np.arange(16, dtype=np.complex128))
    for cmd in ("global-audit", "influence-audit"):
        argv = [cmd, "--q", "2", "--n", "2", "--m", "2", "--input", str(path), "--dmax", "2"]
        assert main([*argv, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the order-2 site stacks of SchemeCtx(q=2, n=2, m=2) would hold 11 x 16")
        assert "Traceback" not in err
    assert built == []
    ctx = scheme.get_scheme(2, 2, 2)
    with pytest.raises(SizeCapError):
        calculus.laplacian_mask(ctx, *ctx.restriction_pairs(2)[0])
    assert built == []


def test_cli_audits_refuse_orders_above_n_plus_m_with_status_2(tmp_path, capsys):
    path = tmp_path / "f.csv"
    write_function_csv(str(path), np.arange(16, dtype=np.complex128))
    for cmd in ("global-audit", "influence-audit"):
        argv = [cmd, "--q", "2", "--n", "2", "--m", "2", "--input", str(path), "--dmax", "5"]
        assert main([*argv, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: dmax=5 too large for SchemeCtx(q=2, n=2, m=2)\n"


ZERO_DIMENSION_CASES = {
    "global-audit n=0": ["global-audit", "--n", "0", "--m", "2"],
    "global-audit m=0": ["global-audit", "--n", "2", "--m", "0"],
    "influence-audit n=0": ["influence-audit", "--n", "0", "--m", "2"],
    "influence-audit m=0": ["influence-audit", "--n", "2", "--m", "0"],
    "levels n=0": ["levels", "--n", "0"],
    "isotypic n=0": ["isotypic", "--n", "0"],
    "fourier n=0": ["fourier", "--n", "0", "--m", "2"],
    "project-degree m=0": ["project-degree", "--n", "2", "--m", "0", "--d", "0"],
}


@pytest.mark.parametrize("argv", ZERO_DIMENSION_CASES.values(), ids=ZERO_DIMENSION_CASES.keys())
def test_cli_zero_dimension_exits_with_status_2(tmp_path, capsys, argv):
    path = tmp_path / "f.csv"
    write_function_csv(str(path), np.ones(1, dtype=np.complex128))
    if argv[0] not in ("levels", "isotypic"):
        argv = [*argv, "--input", str(path)]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: dimensions must be at least 1\n"
    assert not (tmp_path / "out").exists()
