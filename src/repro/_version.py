"""Single source of the package version."""

__version__ = "3.0.0"
