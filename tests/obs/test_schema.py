"""The artifact schema-version check every reader applies."""

import pytest

from repro.obs import check_schema_version, schema


class TestSchema:
    def test_current_version_accepted(self):
        check_schema_version(schema.SCHEMA_VERSION, "x")
        check_schema_version(None, "legacy artifact")  # grandfathered

    def test_future_major_rejected(self):
        with pytest.raises(ValueError, match="major version"):
            check_schema_version("99.0", "x")

    def test_minor_bump_accepted(self):
        check_schema_version("1.9", "x")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            check_schema_version("one.two", "x")
