"""Artifact schema versioning shared by traces, manifests, and ledgers.

Every machine-readable artifact this tree writes — JSONL trace headers,
run manifests, the service's sqlite ledger and recorded workloads —
embeds a ``schema_version`` string so readers written against one layout
never silently misread another.  Versions are ``"<major>.<minor>"``:

* **major** bumps on incompatible layout changes; readers refuse to parse
  a file whose major differs from theirs (with a clear error naming both
  versions), because guessing would produce wrong numbers, not a crash;
* **minor** bumps on additive changes (new optional fields); readers
  accept any minor under their own major.

Files written before versioning existed carry no ``schema_version``; they
are grandfathered in as version ``1.0``.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["SCHEMA_VERSION", "schema_major", "check_schema_version"]

#: the schema version this tree writes (traces, manifests, ledgers)
SCHEMA_VERSION = "1.0"


def schema_major(version: str) -> int:
    """The major component of a ``"<major>.<minor>"`` version string."""
    try:
        return int(str(version).split(".", 1)[0])
    except ValueError:
        raise ValueError(f"malformed schema version {version!r}") from None


def check_schema_version(version: Optional[Any], what: str) -> None:
    """Reject artifacts this reader cannot faithfully interpret.

    ``version=None`` (a pre-versioning artifact) is accepted as 1.0.
    Raises :class:`ValueError` — the error readers surface to users —
    when the major version differs from ours or the string is malformed.
    """
    if version is None:
        return
    major = schema_major(version)
    ours = schema_major(SCHEMA_VERSION)
    if major != ours:
        raise ValueError(
            f"{what} has schema version {version} but this reader "
            f"understands major version {ours} (schema {SCHEMA_VERSION}); "
            "regenerate the artifact or use a matching repro version"
        )
