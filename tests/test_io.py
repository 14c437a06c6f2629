import time

import numpy as np
import pytest

from fftasca import io as dataio
from fftasca.design import encode
from fftasca.errors import IdMismatch, ParseError, RaggedRows
from fftasca.glm import permutation_test
from fftasca.synth import SynthConfig, generate


def write(path, text):
    path.write_text(text, encoding="utf-8")


CHROM = """sample,t0,t1,t2
s1,1.5,2.5,3.5
s2,-0.25,0.5,0.125
s3,7.0,8.0,9.0
"""

META = """sample,group
s1,ctrl
s2,ctrl
s3,treated
"""


class TestChromatograms:
    def test_read_basic(self, tmp_path):
        p = tmp_path / "c.csv"
        write(p, CHROM)
        ids, labels, values = dataio.read_chromatograms(p)
        assert ids == ("s1", "s2", "s3")
        assert labels == ("t0", "t1", "t2")
        assert values.shape == (3, 3)
        assert values[1, 0] == -0.25

    def test_round_trip_is_exact(self, tmp_path):
        data = generate(SynthConfig(n_acquisitions=500, n_peaks=3,
                                    n_significant=2, effect_size=2.0, seed=5))
        p = tmp_path / "synth.csv"
        dataio.write_chromatograms(p, data.sample_ids, data.x_time)
        ids, _, values = dataio.read_chromatograms(p)
        assert ids == data.sample_ids
        assert np.array_equal(values, data.x_time)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "sample,t0,t1\ns1,1,2\ns2,3\n")
        with pytest.raises(RaggedRows) as err:
            dataio.read_chromatograms(p)
        assert err.value.row == 3

    def test_parse_error_locates_token(self, tmp_path):
        p = tmp_path / "bad.csv"
        write(p, "sample,t0,t1\ns1,1,2\ns2,oops,4\n")
        with pytest.raises(ParseError) as err:
            dataio.read_chromatograms(p)
        assert err.value.line == 3
        assert err.value.column == 2

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        write(p, "sample,t0\ns1,1\ns2,2\ns1,3\ns0,4\ns2,5\ns1,6\n")
        with pytest.raises(ParseError, match=r"duplicate sample ids \['s1', 's2'\]"):
            dataio.read_chromatograms(p)


READERS = {
    "chromatograms": (dataio.read_chromatograms, "sample,t0\ns1,1.5\n"),
    "spectra": (dataio.read_complex_matrix, "sample,k0_re,k0_im\ns1,1.5,0\n"),
    "metadata": (dataio.read_metadata, "sample,group\ns1,ctrl\n"),
}


@pytest.mark.parametrize("kind", sorted(READERS))
class TestUndecodableInput:
    def test_invalid_utf8_names_the_path(self, tmp_path, kind):
        reader, text = READERS[kind]
        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode("utf-8").replace(b"s1", b"s\xff1"))
        with pytest.raises(ParseError, match="UTF-8") as err:
            reader(p)
        assert str(p) in str(err.value)

    def test_blank_first_line_is_line_1(self, tmp_path, kind):
        reader, _ = READERS[kind]
        p = tmp_path / "blank.csv"
        write(p, "\n\n")
        with pytest.raises(ParseError) as err:
            reader(p)
        assert err.value.line == 1


class TestMetadataAndJoin:
    def test_load_dataset(self, tmp_path):
        c, m = tmp_path / "c.csv", tmp_path / "m.csv"
        write(c, CHROM)
        write(m, META)
        x, spec, ids = dataio.load_dataset(c, m)
        assert x.shape == (3, 3)
        assert x.dtype == np.complex128
        assert np.all(x.imag == 0.0)
        assert ids == ("s1", "s2", "s3")
        factor = spec.factors[0]
        assert factor.name == "group"
        assert factor.labels == (0, 0, 1)
        assert factor.level_names == {0: "ctrl", 1: "treated"}

    def test_join_respects_data_order(self, tmp_path):
        c, m = tmp_path / "c.csv", tmp_path / "m.csv"
        write(c, CHROM)
        write(m, "sample,group\ns3,treated\ns1,ctrl\ns2,ctrl\n")
        _, spec, ids = dataio.load_dataset(c, m)
        assert ids == ("s1", "s2", "s3")
        assert spec.factors[0].labels == (0, 0, 1)

    def test_id_mismatch_names_offenders(self, tmp_path):
        c, m = tmp_path / "c.csv", tmp_path / "m.csv"
        write(c, CHROM)
        write(m, "sample,group\ns1,ctrl\ns2,ctrl\n")
        with pytest.raises(IdMismatch) as err:
            dataio.load_dataset(c, m)
        assert "s3" in err.value.missing_in_metadata

    def test_aligns_many_shuffled_ids_in_linear_time(self, tmp_path):
        # a set rebuilt per id made this quadratic: 20,000 ids took over a minute
        n = 20_000
        ids = [f"s{i}" for i in range(n)]
        m = tmp_path / "m.csv"
        write(m, "sample,group\n" + "".join(
            f"s{i},g{i % 3}\n" for i in np.random.default_rng(0).permutation(n)))
        start = time.perf_counter()
        spec = dataio.read_design_spec(m, ids)
        assert time.perf_counter() - start < 5.0
        assert spec.factors[0].labels == tuple(i % 3 for i in range(n))

    def test_empty_metadata_cell_rejected(self, tmp_path):
        c, m = tmp_path / "c.csv", tmp_path / "m.csv"
        write(c, CHROM)
        write(m, "sample,group\ns1,ctrl\ns2,\ns3,treated\n")
        with pytest.raises(ParseError):
            dataio.load_dataset(c, m)


class TestComplexMatrix:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        ids = [f"s{i}" for i in range(4)]
        p = tmp_path / "spec.csv"
        dataio.write_complex_matrix(p, ids, values)
        got_ids, got = dataio.read_complex_matrix(p)
        assert got_ids == tuple(ids)
        assert np.array_equal(got, values)


class TestAnovaCsv:
    def test_reparse_preserves_invariants(self, tmp_path):
        rng = np.random.default_rng(1)
        from fftasca.design import DesignSpec, Factor
        dm = encode(DesignSpec(factors=(
            Factor.from_labels("a", [0, 0, 0, 1, 1, 1]),
        )))
        table = permutation_test(rng.normal(size=(6, 5)).astype(complex), dm,
                                 n_permutations=99, seed=0)
        p = tmp_path / "anova.csv"
        dataio.write_anova_csv(p, table)
        back = dataio.read_anova_csv(p)

        body = [r for r in back.rows if r.term != "Total"]
        total = back.row("Total")
        assert sum(r.perc_sum_sq for r in body) == pytest.approx(100.0, abs=0.1)
        assert total.sum_sq == pytest.approx(sum(r.sum_sq for r in body), rel=1e-8)
        p_val = back.row("a").p_value
        assert 1 / 100 <= p_val <= 1.0
        # full float precision survives the trip
        assert back.row("a").sum_sq == table.row("a").sum_sq
        assert back.row("a").f == table.row("a").f

    def test_term_names_that_need_quotes_round_trip(self, tmp_path):
        from fftasca.design import DesignSpec, Factor
        names = ('a,b', 'say "b"', "c\rd\ne")
        dm = encode(DesignSpec(factors=tuple(
            Factor.from_labels(name, labels) for name, labels in
            zip(names, ([0, 1] * 4, [0, 0, 1, 1] * 2, [0] * 4 + [1] * 4)))))
        table = permutation_test(np.arange(40.0).reshape(8, 5) % 7, dm, n_permutations=9)
        p = tmp_path / "anova.csv"
        dataio.write_anova_csv(p, table)
        back = dataio.read_anova_csv(p)
        assert [r.term for r in back.rows] == ["Mean", *names, "Residuals", "Total"]
        assert back.row("c\rd\ne").sum_sq == table.row("c\rd\ne").sum_sq

    @pytest.mark.parametrize("df", ["x", "1.5", ""])
    def test_non_integer_df_names_its_cell(self, tmp_path, df):
        p = tmp_path / "bad.csv"
        p.write_text("term,SumSq,PercSumSq,df,MeanSq,F,Pvalue\n"
                     f"Mean,1,50,1,1,,\na,1,50,{df},1,2,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"cannot parse '{df}' as an integer") as err:
            dataio.read_anova_csv(p)
        assert (err.value.line, err.value.column) == (3, 4)

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("term,SumSq\nMean,1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            dataio.read_anova_csv(p)


class TestJitterTable:
    def test_columns(self, tmp_path):
        from fftasca.synth import JitterTrial
        rows = [JitterTrial(0, 0, 1.5, 2.5), JitterTrial(50, 0, -0.5, 2.25)]
        p = tmp_path / "z.csv"
        dataio.write_jitter_table(p, rows)
        lines = p.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "jitter,trial,z_time,z_freq"
        assert lines[1].startswith("0,0,1.5,2.5")
        assert lines[2].startswith("50,0,-0.5,2.25")


class TestRealMatrix:
    @pytest.mark.parametrize("ids", [None, ("a", "b,c", "d", "e", "f")])
    def test_distinct_rows_write_the_bytes_of_the_full_matrix(self, tmp_path, ids):
        rng = np.random.default_rng(3)
        distinct = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-20, 20, size=(3, 4))
        index = np.array([2, 0, 2, 1, 0])
        full, levels = tmp_path / "full.csv", tmp_path / "levels.csv"
        dataio.write_real_matrix_csv(full, ["x", "y", "z", "w"], distinct[index], row_ids=ids)
        dataio.write_real_matrix_csv(levels, ["x", "y", "z", "w"], distinct, row_ids=ids,
                                     rows=index)
        assert levels.read_bytes() == full.read_bytes()
