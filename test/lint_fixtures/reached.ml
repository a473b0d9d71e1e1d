let through_open x = x
let through_alias x = x
