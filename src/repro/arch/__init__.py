"""Monaco microarchitecture description: PEs, fabrics, NoCs, memory."""
