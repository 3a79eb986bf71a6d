"""Closed-loop benchmark harness for the cylform package."""
