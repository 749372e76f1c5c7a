import pytest

from polyak.cli import group_structure, main
from polyak.invariant import build_table, evaluate, save_table
from polyak.words import GaussWord


@pytest.fixture(scope="module")
def table4_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t4.txt"
    save_table(build_table(4), path)
    return str(path)


@pytest.fixture(scope="module")
def table5_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t5.txt"
    save_table(build_table(5), path)
    return str(path)


class TestGroupStructure:
    def test_trivial(self):
        assert group_structure(())[0] == "ℤ"

    def test_degree4_shape(self):
        text, powers = group_structure((1, 1, 2))
        assert text == "ℤ ⊕ ℤ/2"
        assert powers == {2: 1}

    def test_degree6_shape(self):
        divisors = (1,) * 10 + (2,) * 32 + (4,) * 6 + (8,)
        text, powers = group_structure(divisors)
        assert text == "ℤ ⊕ (ℤ/2)^32 ⊕ (ℤ/4)^6 ⊕ ℤ/8"
        assert powers == {2: 32, 4: 6, 8: 1}


class TestEnumerate:
    def test_rank2(self, capsys):
        assert main(["enumerate", "--rank", "2"]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines() == ["AABB", "ABAB", "ABBA"]
        assert "count 3" in out.err

    def test_rank0(self, capsys):
        assert main(["enumerate", "--rank", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["-"]

    def test_rank6_count(self, capsys):
        assert main(["enumerate", "--rank", "6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10395

    def test_guard(self, capsys):
        assert main(["enumerate", "--rank", "13"]) == 1

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "r3.txt"
        assert main(["enumerate", "--rank", "3", "--out", str(path)]) == 0
        assert len(path.read_text().splitlines()) == 15


class TestGroup:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_low_degrees_free(self, degree, capsys):
        assert main(["group", "--degree", str(degree), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert f"G_{degree} = ℤ\n" in out

    def test_degree4(self, capsys):
        assert main(["group", "--degree", "4", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "G_4 = ℤ ⊕ ℤ/2" in out
        assert "generators 42" in out
        assert "relations 97 (raw 161 + 62)" in out
        assert "exponents 2:1" in out

    def test_degree5(self, capsys):
        assert main(["group", "--degree", "5", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "G_5 = ℤ ⊕ (ℤ/2)^6 ⊕ ℤ/4" in out
        assert "exponents 2:6 4:1" in out


class TestPresentationCmd:
    def test_counts_only(self, capsys):
        assert main(["presentation", "--degree", "4", "--counts-only",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "generators 42" in out
        assert "g2_raw 161" in out
        assert "g3_raw 62" in out
        assert "unique 97" in out

    def test_worker_determinism(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["presentation", "--degree", "4", "--out", str(a),
                     "--workers", "1"]) == 0
        assert main(["presentation", "--degree", "4", "--out", str(b),
                     "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvalCmd:
    def test_published_value(self, table4_path, capsys):
        assert main(["eval", "--table", table4_path, "--word", "ABACDCBD"]) == 0
        assert capsys.readouterr().out.strip() == "1 (order 2)"

    def test_empty_word(self, table4_path, capsys):
        assert main(["eval", "--table", table4_path, "--word", "-"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_bad_word_position_reported(self, table4_path, capsys):
        assert main(["eval", "--table", table4_path, "--word", "ABCA"]) == 2
        err = capsys.readouterr().err
        assert "position 1" in err  # B never recurs

    def test_round_trip_matches_in_process(self, table5_path, capsys, table5):
        word = "ABACDECBDE"
        assert main(["eval", "--table", table5_path, "--word", word]) == 0
        out = capsys.readouterr().out.strip()
        expected = evaluate(table5, GaussWord.from_text(word))
        assert out.split(" (")[0] == " ".join(map(str, expected))

    def test_missing_table(self, capsys):
        assert main(["eval", "--table", "/nonexistent", "--word", "-"]) == 2

    def test_header_only_table_names_line(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("# ftiv-table v1\n")
        assert main(["eval", "--table", str(path), "--word", "-"]) == 2
        assert "line 2: missing degree line" in capsys.readouterr().err


class TestClassifyCmd:
    def test_rank4(self, table5_path, tmp_path, capsys):
        out_path = tmp_path / "classes.txt"
        assert main([
            "classify", "--max-rank", "4", "--table", table5_path,
            "--out", str(out_path),
        ]) == 0
        text = out_path.read_text()
        assert "classes 4" in text
        assert "unresolved 0" in text

    def test_machine_format(self, table5_path, capsys):
        assert main([
            "classify", "--max-rank", "3", "--table", table5_path,
            "--format", "machine",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        assert all(line.split()[1] == "0" for line in lines)


class TestSnfCmd:
    def test_divisors(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 3\n0 0 2\n1 1 4\n")
        assert main(["snf", "--matrix", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "divisors 2 4"

    def test_size_guard(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("500 500\n0 0 1\n")
        assert main(["snf", "--matrix", str(path)]) == 2

    def test_out_of_range_entry_names_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n5 0 1\n")
        assert main(["snf", "--matrix", str(path)]) == 2
        assert "line 2:" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_missing_required_flag(self):
        assert main(["enumerate"]) == 1
