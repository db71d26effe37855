import numpy as np
import pytest

from cronlab.cli import main as cli_main
from cronlab.errors import PreconditionError, StructuralError
from cronlab.fieldio import MAGIC, atomic_open, read_field, write_field
from cronlab.grid import GridSpec, relative_l2_difference
from cronlab.random_fields import random_field, stream


def test_round_trip(tmp_path):
    g = GridSpec(2, 16, 2.5)
    f = random_field(g, stream(9, 0)).in_physical()
    path = tmp_path / "snap.crnl"
    write_field(path, f)
    back, ext = read_field(path)
    assert back.grid == g
    assert back.rep == "physical"
    assert ext.size == 0
    assert relative_l2_difference(f, back) < 1e-15


def test_real_frequency_field_round_trip(tmp_path):
    # a real field stores half its spectrum; the file holds the whole lattice
    g = GridSpec(3, 8, 2.0)
    f = random_field(g, stream(9, 3), real=True)
    assert f.real_valued and f.rep == "frequency"
    path = tmp_path / "real.crnl"
    write_field(path, f)
    assert len(path.read_bytes()) == 29 + 16 * g.num_points   # header, then (re, im) pairs
    back, _ = read_field(path)
    assert back.rep == "frequency"
    assert np.array_equal(back.freq_values, f.freq_values)
    assert relative_l2_difference(f, back) < 1e-15


def test_extension_block_round_trip(tmp_path):
    g = GridSpec(3, 8, 1.0)
    f = random_field(g, stream(9, 1))
    omega = np.array([0.6, 0.8, 0.0])
    path = tmp_path / "phase.crnl"
    write_field(path, f, extension=omega)
    back, ext = read_field(path)
    assert back.rep == "frequency"
    assert np.array_equal(ext, omega)


def test_header_layout(tmp_path):
    g = GridSpec(2, 8, 2.0)
    f = random_field(g, stream(9, 2)).in_physical()
    path = tmp_path / "hdr.crnl"
    write_field(path, f)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    # version, n, N little-endian u32s after the magic
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 8
    assert np.frombuffer(blob[16:24], "<f8")[0] == 2.0


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.crnl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(StructuralError):
        read_field(path)


def test_short_files_raise_structural_error(tmp_path):
    g = GridSpec(2, 8, 2.0)
    path = tmp_path / "snap.crnl"
    write_field(path, random_field(g, stream(9, 3)).in_physical(), extension=[1.0])
    blob = path.read_bytes()
    # cut inside the header, the extension block and the data
    for size in (0, 10, 28, 33, len(blob) - 3):
        path.write_bytes(blob[:size])
        with pytest.raises(StructuralError):
            read_field(path)
    with pytest.raises(PreconditionError):
        read_field(tmp_path / "missing.crnl")


def test_failed_write_leaves_earlier_file(tmp_path):
    g = GridSpec(2, 8, 2.0)
    path = tmp_path / "snap.crnl"
    write_field(path, random_field(g, stream(9, 4)).in_physical())
    before = path.read_bytes()

    class Unwritable:               # the header goes out, then the values fail
        grid, rep = g, "physical"

        @property
        def values(self):
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_field(path, Unwritable())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.crnl"]


def test_atomic_write_keeps_default_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    for mode, data in (("w", "x"), ("wb", b"x")):
        path = tmp_path / "sub" / f"atomic-{mode}"
        with atomic_open(path, mode) as fh:
            fh.write(data)
        assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["atomic-w", "atomic-wb"]


def test_cli_dump_field_bad_files(tmp_path, capsys):
    short = tmp_path / "short.crnl"
    short.write_bytes(MAGIC + b"\x01\x00")
    assert cli_main(["dump-field", str(short)]) == 2
    assert "error: truncated header" in capsys.readouterr().err
    assert cli_main(["dump-field", str(tmp_path / "missing.crnl")]) == 2
    assert "error: cannot read field file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzed input: any byte string ends in a CronlabError or a finite field

from hypothesis import given, settings, strategies as st

from cronlab.errors import CronlabError
from cronlab.fieldio import _HEADER

_F64 = st.floats(width=64)          # NaN and +-inf included


@st.composite
def near_field_files(draw):
    """Byte strings close to the layout, mostly a valid one for n = 2, N = 8: a
    header of drawn values (magic, version, n, N, L, flag, extension count),
    drawn extension and data values, and in one case of four a cut or
    trailing bytes."""
    ext_count = draw(st.integers(0, 3))
    blob = _HEADER.pack(draw(st.sampled_from([MAGIC] * 3 + [b"CRNX"])),
                        draw(st.sampled_from([1, 1, 1, 2])),
                        draw(st.sampled_from([2, 2, 2, 0, 7])),
                        draw(st.sampled_from([8, 8, 8, 4, 12])),
                        draw(_F64), draw(st.integers(0, 255)), ext_count)
    values = draw(st.lists(_F64, min_size=ext_count + 128, max_size=ext_count + 128))
    blob += np.asarray(values, dtype="<f8").tobytes()
    if draw(st.integers(0, 3)) == 0:
        blob = blob[:draw(st.integers(0, len(blob)))] + draw(st.binary(max_size=8))
    return blob


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200) | near_field_files())
def test_read_field_fuzz_ends_in_error_or_finite_field(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.crnl"
    path.write_bytes(blob)
    try:
        field, ext = read_field(path)
    except CronlabError:
        return
    assert np.isfinite(field.grid.L)
    assert np.isfinite(field.values).all() and np.isfinite(ext).all()
