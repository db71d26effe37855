import pytest

from cronlab.harness import atomic_open


def test_failed_write_leaves_earlier_file(tmp_path):
    path = tmp_path / "summary.json"
    with atomic_open(path) as fh:
        fh.write("earlier")
    before = path.read_bytes()

    with pytest.raises(OSError, match="disk full"):
        with atomic_open(path) as fh:     # part of the file goes out, then the write fails
            fh.write("later")
            fh.flush()
            raise OSError("disk full")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_atomic_write_keeps_default_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    path = tmp_path / "sub" / "atomic.txt"
    with atomic_open(path) as fh:
        fh.write("x")
    assert path.stat().st_mode == plain.stat().st_mode
    assert [p.name for p in (tmp_path / "sub").iterdir()] == ["atomic.txt"]
