"""``repro.canonical``: the artifact byte format and the atomic writer."""

import json
import os

import pytest

from repro import canonical


def test_dumps_is_sorted_compact_json():
    """Byte for byte what every call site spelled out before the helper."""
    obj = {
        "t": 0.1 + 0.2, "cat": "tx", "i": 3, "none": None, "ok": True,
        "nested": {"b": [1, 2.5, "é"], "a": {"z": 1e-9, "y": -0.0}},
        "big": 1e22, "empty": {},
    }
    assert canonical.dumps(obj) == json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    )
    assert canonical.dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_atomic_write_replaces_and_leaves_only_the_target(tmp_path):
    path = tmp_path / "artifact.json"
    canonical.atomic_write_text(path, "old\n")
    canonical.atomic_write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_atomic_write_failure_propagates_and_removes_the_temp(
    tmp_path, monkeypatch
):
    """An OSError and a Ctrl-C between the write and the rename alike."""
    path = tmp_path / "artifact.json"
    path.write_text("kept\n")
    for failure in (OSError("read-only file system"), KeyboardInterrupt()):

        def refuse(src, dst):
            raise failure

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(type(failure)) as caught:
            canonical.atomic_write_text(path, "lost\n")
        assert caught.value is failure
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
