let whole = 3
