"""Single source of the package version."""

__version__ = "10.0.0"
