"""Single source of the package version."""

__version__ = "7.1.0"
