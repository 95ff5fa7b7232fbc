"""Session-scoped Ray fixture: init ONCE per pytest session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield ray
    ray.shutdown()


@pytest.fixture
def index_digest():
    """-> fn(index_dir): SHA-256 over the manifest and every file under
    shards/, norms/ and offsets/ (relative paths and bytes), for asserting
    that an operation left a live index untouched."""
    import hashlib

    def digest(index_dir) -> str:
        root = Path(index_dir)
        h = hashlib.sha256()
        files = [root / "manifest.json"] + sorted(
            p for sub in ("shards", "norms", "offsets")
            for p in (root / sub).rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    return digest
