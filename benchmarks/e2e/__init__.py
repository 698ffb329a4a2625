"""End-to-end benchmark of the serving stack (see README.md in this directory)."""
