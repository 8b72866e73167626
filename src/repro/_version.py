"""Single source of the package version."""

__version__ = "8.0.0"
