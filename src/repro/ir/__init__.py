"""Structured kernel IR: the frontend of the reproduction's compiler stack."""
