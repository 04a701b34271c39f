"""Run provenance: every output file gets a JSON manifest sidecar.

The config digest is a SHA-256 of the canonicalized (sorted-keys, compact)
configuration alone, so one config has one digest whatever the command,
and reruns can be checked for byte-identical outputs.  A scan or series
sidecar also records the dataset's metadata (seed, shots, ...) under
`scan_meta`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_digest: str
    seed: int | None
    tool_version: str
    timestamp: str


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_manifest(command: str, config: dict, seed: int | None = None) -> RunManifest:
    return RunManifest(
        command=command,
        config_digest=config_digest(config),
        seed=seed,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def write_manifest(path, command: str, config: dict, seed: int | None = None,
                   scan_meta: dict | None = None) -> RunManifest:
    manifest = make_manifest(command, config, seed)
    doc = asdict(manifest)
    if scan_meta is not None:
        doc["scan_meta"] = scan_meta
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return manifest
