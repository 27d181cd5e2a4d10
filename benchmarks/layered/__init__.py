"""Layered two-clock benchmark (see README.md); run through run.py."""
