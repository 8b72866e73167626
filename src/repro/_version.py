"""Single source of the package version."""

__version__ = "7.3.0"
