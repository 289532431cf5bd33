"""End-to-end benchmark: Table III cells, sealed and thousand-client federation,
sealed and clear serving, with a per-layer traced run (see README.md)."""
