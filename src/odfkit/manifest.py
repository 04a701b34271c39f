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
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_manifest(command: str, config: dict, seed: int | None = None) -> dict:
    """The provenance record: command, config_digest, seed, tool_version, UTC timestamp."""
    return {
        "command": command,
        "config_digest": config_digest(config),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(path, command: str, config: dict, seed: int | None = None,
                   scan_meta: dict | None = None) -> dict:
    manifest = make_manifest(command, config, seed)
    if scan_meta is not None:
        manifest["scan_meta"] = scan_meta
    Path(path).write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return manifest
