module megaphone/bench

go 1.24

require megaphone v0.0.0

replace megaphone => ../
