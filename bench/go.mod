module neesgrid/bench

go 1.23

require neesgrid v0.0.0

replace neesgrid => ../
