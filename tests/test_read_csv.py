"""The one CSV reader: numpy's C parser must give exactly what the per-cell
scan gives, the same matrix bit for bit or the same error."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid import dataset
from pilid.dataset import DatasetError, read_csv


def outcome(path, select=None):
    """read_csv's result as comparable data: header and matrix bytes, or
    the error message."""
    try:
        header, mat = read_csv(path, select)
    except DatasetError as exc:
        return "error", str(exc)
    return "ok", header, mat.shape, mat.tobytes()


def scan_outcome(path, select=None):
    """The same read with numpy's parser switched off: the scan alone."""
    with mock.patch.object(dataset, "_parse_fast", return_value=None):
        return outcome(path, select)


def fast_path_answers(path) -> bool:
    """Whether numpy's parser reads the whole file, with no scan."""
    with mock.patch.object(dataset, "_scan",
                           side_effect=AssertionError("scanned")):
        try:
            read_csv(path)
        except AssertionError:
            return False
        except DatasetError:
            pass
    return True


def select_columns(*names):
    return lambda header: [header.index(n) for n in names]


CELLS = ["0", "1.5", "-2.25e-3", "0.30000000000000004", "+.5", "7.", "1e400",
         "-1e400", "nan", "NaN", "-Infinity", "inf", " 3.5 ", "\t4", "",
         "  ", "1_0", "١", "\xa01", '"1"', "#", "#1", "1#2", "abc",
         "0x1p3", "1 2", "1e", "--1", "1,5"]


@st.composite
def csv_files(draw):
    """CSV text mixing well-formed and broken rows, cells and line ends."""
    k = draw(st.integers(1, 4))
    header = ["a", "b", "c", "d"][:k]
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = st.one_of(numbers, st.integers(-999, 999).map(str),
                     st.sampled_from(CELLS))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([k, k, k, k - 1, k + 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=n, max_size=n))))
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, "", end + end]))
    return text, header


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


class TestFastPathMatchesScan:
    @given(file=csv_files(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_or_same_error(self, csv_path, file, data):
        text, header = file
        path = csv_path
        path.write_bytes(text.encode("utf-8"))
        select = None
        if data.draw(st.booleans()):
            names = data.draw(st.permutations(header))[:data.draw(
                st.integers(1, len(header)))]
            select = select_columns(*names)
        assert outcome(path, select) == scan_outcome(path, select)

    @given(header=st.sampled_from(["a", "a,b", "a,b,c"]),
           body=st.text(alphabet=list("0123456789.,e-+ \t\n\r\"#_naifx")
                        + ["\x00", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                           "\u0661"], max_size=80),
           select=st.sampled_from([None, select_columns("a")]))
    @settings(max_examples=300, deadline=None)
    def test_same_on_random_text(self, csv_path, header, body, select):
        csv_path.write_bytes((header + "\n" + body).encode("utf-8"))
        assert outcome(csv_path, select) == scan_outcome(csv_path, select)

    @pytest.mark.parametrize("text,fast", [
        # numpy reads these; the scan rejects them, so the reader must too
        ("a,b\n1,2\n\n3,4\n", False),
        ("a,b\n1,2\n3,4\n\n", False),
        ("a,b\n1,2\r\n\r\n3,4\r\n", False),
        # numpy rejects these; the scan accepts them
        ('a,b\n"1",2\n3,4\n', False),
        ("a,b\n1_0,2\n3,4\n", False),
        ("a,b\n١,2\n3,4\n", False),
        # broken in both
        ("a,b\n1,2\n3\n", False),
        ("a,b\n1,2\n3,4,5\n", False),
        ("a,b\n1,2\n,4\n", False),
        ("a,b\n1,2\n#3,4\n", False),
        ("a,b\n1,2\n3,abc\n", False),
        # read by numpy, the same as by the scan
        ("a,b\n 1 ,\t2\n3,4\n", True),
        ("a,b\n1,2\nnan,4\n", True),
        ("a,b\n1,2\n3,-Infinity\n", True),
        ("a,b\n1e400,2\n3,4\n", True),
        ("a,b\r\n1,2\r\n3,4\r\n", True),
        ("a,b\r1,2\r3,4\r", True),
        ("a,b\n1,2\n3,4", True),
        ('"a\nb",c\n1,2\n3,4\n', True),
    ])
    def test_listed_case(self, tmp_path, text, fast):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(path) == scan_outcome(path)
        assert fast_path_answers(path) == fast

    def test_unselected_text_column_is_not_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,a,b\nrow-1,1.5,2\nrow-2,3,4e-3\n")
        header, mat = read_csv(path, select_columns("b", "a"))
        assert header == ["id", "a", "b"]
        assert mat.tobytes() == np.array([[2.0, 1.5], [4e-3, 3.0]]).tobytes()
        assert outcome(path, select_columns("a")) == \
            scan_outcome(path, select_columns("a"))
        with pytest.raises(DatasetError, match=r"cannot parse 'row-1' at "
                                               r"line 2, column 'id'"):
            read_csv(path)


class TestReaderErrors:
    def test_invalid_utf8_in_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,\xff\n1,2\n")
        with pytest.raises(DatasetError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: invalid UTF-8 at line 1"

    def test_oversized_field_names_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n" + "1" * 200_000 + ",x\n")
        with pytest.raises(DatasetError, match=f"{path}: field larger"):
            read_csv(path)

    @pytest.mark.parametrize("text,message", [
        # a header over lines 1-2: numpy's parser reads the nan, the scan
        # names the bad cell
        ('"a\nb",y\n1,2\nnan,3\n',
         "non-finite value 'nan' at line 4, column 'a\\nb'"),
        ('"a\nb",y\n1,2\nabc,3\n',
         "cannot parse 'abc' at line 4, column 'a\\nb'"),
        # a data row over lines 2-3
        ('a,y\n"1\n",2\nnan,3\n', "non-finite value 'nan' at line 4, "
                                   "column 'a'"),
        ('a,y\n"1\n",2\nabc,3\n', "cannot parse 'abc' at line 4, "
                                   "column 'a'"),
        ('a,y\n1,2\n"x\ny",3\n', "cannot parse 'x\\ny' at line 3, "
                                  "column 'a'"),
    ])
    def test_line_numbers_count_lines_not_rows(self, tmp_path, text,
                                               message):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DatasetError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: {message}"
        assert outcome(path) == scan_outcome(path)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        header, mat = read_csv(path)
        assert header == ["a", "b"] and mat.shape == (0, 2)


class TestLineCount:
    @pytest.mark.parametrize("data,lines", [
        (b"", 0), (b"a", 1), (b"a\n", 1), (b"a\nb", 2), (b"a\r\nb\r\n", 2),
        (b"a\rb\r", 2), (b"\n\n", 2), (b"a\r\r\nb", 3),
    ])
    def test_counts_lines_as_csv_reads_them(self, tmp_path, data, lines):
        path = tmp_path / "f"
        path.write_bytes(data)
        assert dataset._line_count(path) == lines

    def test_cr_lf_across_chunk_boundary(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"x" * ((1 << 20) - 1) + b"\r\nb\n")
        assert dataset._line_count(path) == 2
