module detectable/bench

go 1.24

require detectable v0.0.0

replace detectable => ../
