"""Fixture modules exercised by the obs tests (not collected as tests)."""
