"""The paper's primary contribution: NUPEA domains, criticality, policies."""
