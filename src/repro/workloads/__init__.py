"""The paper's 13 evaluation workloads (Table 1), as kernel-IR programs."""
