"""Commands that create their own result store remove it on exit.

``repro serve --shards``, ``repro loadtest --shards`` and the chaos
drill fall back to a temporary store when none is given; the command
owns that store and must leave nothing behind.  The tier is replaced
by a stand-in, so no shard process boots.
"""

import os
import tempfile

import pytest

from repro import cli
from repro.serve import chaos, shard


class _Stop(Exception):
    """Raised by the stand-in tier once the command is running."""


class _Tier:
    """Boots nothing; records the store and stops the command at its
    first look at the tier's URLs."""

    def __init__(self, config, shards, **_kwargs):
        self.store = config.store_path

    def __enter__(self):
        assert os.path.isdir(self.store)  # the store exists while the tier runs
        return self

    def __exit__(self, *exc):
        return False

    @property
    def url(self):
        raise _Stop(self.store)

    shard_urls = url


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def _left_behind(root):
    return sorted(path.name for path in root.glob("repro-*store-*"))


def test_chaos_drill_removes_its_store(temp_root, monkeypatch):
    monkeypatch.setattr(chaos, "ShardedTier", _Tier)
    monkeypatch.setattr(chaos, "expected_responses", lambda bodies: [])
    with pytest.raises(_Stop) as stopped:
        chaos.run_chaos_drill(shards=2)
    assert os.path.dirname(stopped.value.args[0]) == str(temp_root)
    assert _left_behind(temp_root) == []


def test_chaos_drill_keeps_a_given_store(temp_root, monkeypatch):
    monkeypatch.setattr(chaos, "ShardedTier", _Tier)
    monkeypatch.setattr(chaos, "expected_responses", lambda bodies: [])
    given = temp_root / "repro-given-store-x"
    given.mkdir()
    with pytest.raises(_Stop):
        chaos.run_chaos_drill(shards=2, store=str(given))
    assert given.is_dir()


def test_sharded_loadtest_removes_its_store(temp_root, monkeypatch):
    monkeypatch.setattr(shard, "ShardedTier", _Tier)
    args = cli.build_parser().parse_args(["loadtest", "--shards", "2"])
    with pytest.raises(_Stop) as stopped:
        cli._loadtest_sharded(args)
    assert os.path.dirname(stopped.value.args[0]) == str(temp_root)
    assert _left_behind(temp_root) == []


def test_sharded_serve_removes_its_store(temp_root, monkeypatch):
    seen = []

    def serve(args, config):
        assert os.path.isdir(config.store_path)
        seen.append(config.store_path)
        return 0

    monkeypatch.setattr(cli, "_serve_sharded", serve)
    assert cli.cmd_serve(cli.build_parser().parse_args(["serve", "--shards", "2"])) == 0
    assert [os.path.dirname(path) for path in seen] == [str(temp_root)]
    assert _left_behind(temp_root) == []
