let unused x = x + 1
let twice x = unused (unused x)
let kept x = x
let kept_bare x = x
