"""Frozen golden data that tests pin the library against.

Each ``.npz`` here is regenerated only by ``make golden``; a test compares
today's output with the frozen arrays bit for bit.
"""
