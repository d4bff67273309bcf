"""Dataflow graph: representation, lowering, analysis, interpretation."""
