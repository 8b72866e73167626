"""Single source of the package version."""

__version__ = "2.0.0"
