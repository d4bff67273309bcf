"""Experiment harness: regenerate every table and figure of the paper."""
