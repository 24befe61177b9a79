import pytest

from dtlab.cli import main
from dtlab.explorer import MAX_GROWTH_N
from dtlab.measures import MAX_SPEC_NESTING, format_measure, load_measure
from dtlab.tables import canonical_key, format_table, load_table, validate
from dtlab.trees import load_tree, validate_deterministic


@pytest.fixture
def example6_path(tmp_path, example6):
    path = tmp_path / "example6.dt"
    path.write_text(format_table(example6))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_params_text(capsys, example6_path):
    code, out = run(capsys, "params", example6_path)
    assert code == 0
    assert "rows" in out and "det-tree-cost" in out
    consistent = [l for l in out.splitlines() if l.startswith("consistent")]
    assert consistent and consistent[0].endswith("yes")


def test_params_kv(capsys, example6_path):
    code, out = run(capsys, "params", example6_path, "--kv")
    assert code == 0
    kv = dict(line.split("=") for line in out.strip().splitlines())
    assert kv["rows"] == "6"
    assert kv["columns"] == "3"
    assert kv["min_test_cost"] == "2"
    assert kv["separation_cost"] == "2"
    assert kv["closure_separation_cost"] == "2"
    assert kv["fixing_cost"] == "2"
    assert kv["det_cost"] == "2"
    assert kv["snd_cost"] == "1"
    assert kv["consistent"] == "yes"


def test_params_with_measure_file(capsys, tmp_path, example6_path, weighted):
    mpath = tmp_path / "w.cm"
    mpath.write_text(format_measure(weighted))
    code, out = run(capsys, "params", example6_path, "-m", mpath, "--kv")
    assert code == 0
    kv = dict(line.split("=") for line in out.strip().splitlines())
    assert kv["min_test_cost"] == "5"
    assert kv["det_cost"] == "4"
    assert kv["snd_cost"] == "3"


def test_tree_det_witness(capsys, tmp_path, example6_path, example6):
    out_path = tmp_path / "w.tree"
    code, out = run(capsys, "tree", "det", example6_path, "-o", out_path)
    assert code == 0
    assert "cost 2" in out
    tree = load_tree(out_path, 2)
    assert validate_deterministic(tree, example6).ok


def test_tree_snd_print(capsys, example6_path):
    code, out = run(capsys, "tree", "snd", example6_path)
    assert code == 0
    assert "cost 1" in out
    assert "(root" in out


def test_closure_directory_and_index(capsys, tmp_path, example6_path, or_image):
    out_dir = tmp_path / "closure"
    code, out = run(capsys, "closure", example6_path, "--out", out_dir)
    assert code == 0
    index = (out_dir / "index.txt").read_text().splitlines()
    assert any("exhausted yes" in line for line in index if line.startswith("#"))
    rows = [line.split() for line in index if line and not line.startswith("#")]
    assert len(rows) == 125
    hits = [r for r in rows if "removed=f4" in r and "nu=0111" in r]
    assert len(hits) == 1
    member = load_table(out_dir / hits[0][1])
    assert canonical_key(member) == canonical_key(or_image)
    for row in rows:
        fields = dict(f.split("=", 1) for f in row[2:])
        table = load_table(out_dir / row[1])
        assert fields["key"] == canonical_key(table)
        bits = "".join(str(d) for _, d in sorted(table.entries()))
        assert fields["nu"] == (bits or "-")
    assert any("nu=-" in row for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "{table}", "--out", "{out}", "--limit", "-1"],
        ["closure", "{table}", "--out", "{out}", "--max-rows", "-2"],
        ["explore", "--fn", "FW", "--gen", "builtin:id2", "--max-n", "2", "--limit-tables", "-1"],
    ],
)
def test_negative_closure_limit_exits_2(capsys, tmp_path, example6_path, argv):
    out_dir = tmp_path / "closure"
    argv = [a.format(table=example6_path, out=out_dir) for a in argv]
    assert main(argv) == 2
    assert "must be a nonnegative integer" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--fn", "FW", "--gen", "builtin:unitrows:0", "--max-n", "2"],
        ["explore", "--fn", "FW", "--gen", "builtin:unitrows:", "--max-n", "2"],
        ["explore", "--fn", "FW", "--gen", "builtin:id2", "--max-n", "-1"],
    ],
)
def test_explore_bad_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_explore_max_n_past_the_guard_rail_exits_2(capsys):
    assert main(["explore", "--fn", "FW", "--gen", "builtin:id2", "--max-n", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: max_n 100000000 exceeds")
    assert f"the {MAX_GROWTH_N}-point guard rail" in captured.err
    assert captured.out == ""


def test_construct_lemma12_and_isolate(capsys, tmp_path, example6_path):
    out = tmp_path / "tight.dt"
    code, _ = run(capsys, "construct", "lemma12", example6_path, "-o", out)
    assert code == 0
    assert load_table(out).n_cols == 2

    out2 = tmp_path / "lone.dt"
    code, _ = run(capsys, "construct", "isolate", example6_path, "--row", "1,1,1", "-o", out2)
    assert code == 0
    lone = load_table(out2)
    assert sum(lone.decisions) == 1


def test_construct_lemma13_14(capsys, tmp_path, example6_path):
    out = tmp_path / "hard.dt"
    code, _ = run(capsys, "construct", "lemma13", example6_path, "-o", out)
    assert code == 0
    assert load_table(out).n_rows == 6

    out2 = tmp_path / "star.dt"
    code, _ = run(capsys, "construct", "lemma14", example6_path, "-o", out2)
    assert code == 0
    assert load_table(out2).n_rows == 6


def test_construct_fig5(capsys, tmp_path):
    t_path = tmp_path / "fam.dt"
    m_path = tmp_path / "fam.cm"
    code, out = run(
        capsys, "construct", "fig5", "--phi", "0,1,4,9", "--n", "2",
        "-o", t_path, "--out-measure", m_path,
    )
    assert code == 0
    assert "phi(2) = 2*2 + 0" in out
    t = load_table(t_path)
    assert t.n_cols == 2 and t.n_rows == 3
    m = load_measure(m_path)
    assert m.cost([2]) == 2


def test_construct_thresholds_and_gens(capsys, tmp_path):
    out = tmp_path / "steps.dt"
    code, _ = run(capsys, "construct", "thresholds", "--thresholds", "1,2", "--nu", "xor", "-o", out)
    assert code == 0
    t = load_table(out)
    assert dict(t.entries()) == {(0, 0): 0, (1, 0): 1, (1, 1): 0}

    gen_dir = tmp_path / "gens"
    code, _ = run(capsys, "construct", "gens", "--set", "2,5", "--out-dir", gen_dir)
    assert code == 0
    assert sorted(p.name for p in gen_dir.glob("*.dt")) == ["gen_f2.dt", "gen_f5.dt"]
    assert (gen_dir / "measure.cm").exists()


def test_explore_builtin_steps(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out = run(
        capsys, "explore", "--fn", "FW", "--gen", "builtin:thm3:2,5,9",
        "--max-n", "10", "--csv", csv_path,
    )
    assert code == 0
    assert "growth FW" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,value,exhausted"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [0, 0, 2, 2, 2, 5, 5, 5, 5, 9, 9]


def test_explore_directory_generators(capsys, tmp_path, example6_path):
    gen_dir = tmp_path / "g"
    gen_dir.mkdir()
    (gen_dir / "a.dt").write_text(example6_path.read_text())
    code, out = run(capsys, "explore", "--fn", "G", "--gen", gen_dir, "--max-n", "3")
    assert code == 0
    assert "growth G" in out


def test_verify_cli_growth(capsys):
    code, out = run(capsys, "verify", "--suite", "growth")
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "dp-oracle", "--k", "4", "--max-cols", "2", "--max-rows", "2"),
        ("--suite", "growth", "--samples", "5", "--seed", "3", "--k", "3"),
    ],
    ids=["dp-oracle-k4", "growth-sampled"],
)
def test_verify_cli_config_that_would_check_nothing_exits_2(capsys, tmp_path, argv):
    code = main(["verify", *argv, "--dump-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: the ")


def test_verify_cli_lemmas_small(capsys, tmp_path):
    code, out = run(
        capsys, "verify", "--suite", "lemmas", "--k", "2",
        "--max-cols", "1", "--max-rows", "2", "--dump-dir", tmp_path,
    )
    assert code == 0
    assert "checked 9 inputs" in out


@pytest.mark.parametrize(
    "flag, value, extra",
    [
        pytest.param("--k", "1", (), id="--k-1"),
        pytest.param("--max-cols", "-1", (), id="--max-cols--1"),
        pytest.param("--max-rows", "-1", (), id="--max-rows--1"),
        pytest.param("--samples", "-1", (), id="--samples--1"),
        pytest.param("--max-cols", "0", ("--samples", "3"), id="--max-cols-0-sampled"),
        pytest.param("--max-rows", "0", ("--samples", "3"), id="--max-rows-0-sampled"),
    ],
)
def test_verify_cli_bad_config_exits_2(capsys, tmp_path, flag, value, extra):
    dump_dir = tmp_path / "dumps"
    code = main(["verify", "--suite", "lemmas", flag, value, *extra, "--dump-dir", str(dump_dir)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not dump_dir.exists()


def test_verify_cli_dumps_counterexamples(capsys, tmp_path, monkeypatch):
    import dtlab.verify as verify_mod

    def synthetic_findings(measure, table):
        return ["synthetic"] if table.n_rows >= 1 else []

    monkeypatch.setattr(verify_mod, "lemma_findings", synthetic_findings)
    code, out = run(
        capsys, "verify", "--suite", "lemmas", "--k", "2",
        "--max-cols", "1", "--max-rows", "1", "--dump-dir", tmp_path,
    )
    assert code == 1
    assert "FAIL" in out
    dumps = list(tmp_path.glob("counterexample_*.dt"))
    assert dumps
    assert load_table(dumps[0]).n_rows == 1  # shrunk to one row


def test_params_empty_table(capsys, tmp_path):
    path = tmp_path / "empty.dt"
    path.write_text("k 2\nattrs\n")
    code, out = run(capsys, "params", path, "--kv")
    assert code == 0
    kv = dict(line.split("=") for line in out.strip().splitlines())
    assert kv["rows"] == "0" and kv["det_cost"] == "0"


def test_tree_det_constant_table(capsys, tmp_path):
    path = tmp_path / "c.dt"
    path.write_text("k 2\nattrs f0\nrow 0 1\nrow 1 1\n")
    code, out = run(capsys, "tree", "det", path)
    assert code == 0
    assert "cost 0" in out


def test_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, "params", "no_such_file.dt")
    assert code == 2


def test_bad_input_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.dt"
    bad.write_text("k 2\nattrs f0\nrow 0 1\nrow 0 0\n")
    code, _ = run(capsys, "params", bad)
    assert code == 2


@pytest.mark.parametrize("command", [["params", "--kv"], ["tree", "det"], ["tree", "snd"]])
def test_measure_spec_nesting_bound(capsys, example6_path, command):
    at_bound = "sum:" * MAX_SPEC_NESTING + "depth"  # a one-child sum is its child
    assert run(capsys, *command, example6_path, "-m", at_bound) == run(capsys, *command, example6_path)
    assert main([*command, str(example6_path), "-m", "sum:" + at_bound]) == 2
    assert f"more than {MAX_SPEC_NESTING} levels" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["params"])  # missing table argument
    assert exc.value.code == 2
