"""Fixture package for the cross-module lint tests."""
